package des

// A scope is who usage is charged to. A process opens one with LeadScope
// and closes it with EndScope, and what it spawns meanwhile is in it,
// theirs included. Scopes nest: LeadScope inside a scope opens a child,
// and EndScope puts the process back in the parent. A service meters
// usage in a Ledger, which charges the innermost scope of the process it
// serves, if that scope is still open, as well as the total.
//
// A scope is a value, not the process that leads it: a process that
// runs one scope after another (a caller running jobs back to back)
// leads a new scope each time, so a process left over from an ended
// scope charges nobody rather than the next one.
type Scope struct {
	parent *Scope
	open   bool
}

// LeadScope opens a scope inside the one p is in, puts p in it and
// returns it.
func (p *Proc) LeadScope() *Scope {
	s := &Scope{parent: p.scope, open: true}
	p.scope = s
	return s
}

// EndScope closes the scope p opened last and puts p back in its parent.
func (p *Proc) EndScope() {
	s := p.scope
	s.open = false
	p.scope = s.parent
}

// Scope returns the innermost scope p is in while it is open, nil
// otherwise: the scope a charge for p goes to.
func (p *Proc) Scope() *Scope {
	if s := p.scope; s != nil && s.open {
		return s
	}
	return nil
}

// Ledger is a meter of T kept in total and per scope; the zero value is
// empty. Like everything a process touches it needs no locking.
type Ledger[T any] struct {
	Total  T
	scopes map[*Scope]*T
}

// Charge applies f to the total and to the T of the open scope p is in,
// made at the scope's first charge.
func (l *Ledger[T]) Charge(p *Proc, f func(*T)) {
	f(&l.Total)
	if sc := p.Scope(); sc != nil {
		s := l.scopes[sc]
		if s == nil {
			if l.scopes == nil {
				l.scopes = make(map[*Scope]*T)
			}
			s = new(T)
			l.scopes[sc] = s
		}
		f(s)
	}
}

// Scope returns what sc has been charged so far. Once sc has ended that
// is all, and the ledger forgets it.
func (l *Ledger[T]) Scope(sc *Scope) (t T) {
	if s := l.scopes[sc]; s != nil {
		t = *s
	}
	if !sc.open {
		delete(l.scopes, sc)
	}
	return t
}
