package des

// A scope is who usage is charged to. A process leads one from LeadScope
// to EndScope, and what it spawns meanwhile is in it, theirs included. A
// service meters usage in a Ledger, which charges the scope of the process
// it serves as well as the total.

// LeadScope opens a scope led by p.
func (p *Proc) LeadScope() { p.scope = p }

// EndScope closes the scope p leads.
func (p *Proc) EndScope() { p.scope = nil }

// Scope returns the leader of the open scope p is in, nil if none.
func (p *Proc) Scope() *Proc {
	if l := p.scope; l != nil && l.scope == l {
		return l
	}
	return nil
}

// Ledger is a meter of T kept in total and per scope; the zero value is
// empty. Like everything a process touches it needs no locking.
type Ledger[T any] struct {
	Total  T
	scopes map[*Proc]*T
}

// Charge applies f to the total and to the T of the open scope p is in,
// made at the scope's first charge.
func (l *Ledger[T]) Charge(p *Proc, f func(*T)) {
	f(&l.Total)
	if lead := p.Scope(); lead != nil {
		s := l.scopes[lead]
		if s == nil {
			if l.scopes == nil {
				l.scopes = make(map[*Proc]*T)
			}
			s = new(T)
			l.scopes[lead] = s
		}
		f(s)
	}
}

// Scope returns what the scope lead leads has been charged so far. Once
// the scope has ended that is all, and the ledger forgets it.
func (l *Ledger[T]) Scope(lead *Proc) (t T) {
	if s := l.scopes[lead]; s != nil {
		t = *s
	}
	if lead.Scope() != lead {
		delete(l.scopes, lead)
	}
	return t
}
