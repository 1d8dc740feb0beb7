package des

import (
	"testing"
	"unsafe"
)

// TestSpawnedProcessesChargeTheLeadersScope: a process spawned from a
// scope, and one spawned from that, charge the scope; one the Sim spawns
// is in no scope; once the scope ends nobody charges it, and the ledger
// forgets it once read. The total takes every charge.
func TestSpawnedProcessesChargeTheLeadersScope(t *testing.T) {
	s := New(1)
	var ledger Ledger[int]
	charge := func(p *Proc) { ledger.Charge(p, func(n *int) { *n++ }) }
	var lead *Scope
	s.Spawn("lead", func(p *Proc) {
		lead = p.LeadScope()
		charge(p)
		var wg WaitGroup
		wg.Add(2)
		p.Spawn("child", func(c *Proc) {
			defer wg.Done()
			charge(c)
			c.Spawn("grandchild", func(g *Proc) {
				defer wg.Done()
				charge(g)
			})
		})
		s.Spawn("outsider", func(o *Proc) {
			if o.Scope() != nil {
				t.Error("a process the Sim spawns is in a scope")
			}
			charge(o)
		})
		wg.Wait(p)
		if got := ledger.Scope(lead); got != 3 {
			t.Errorf("scope charged %d times, want 3 (leader, child, grandchild)", got)
		}
		p.Spawn("late", func(l *Proc) {
			l.Sleep(1)
			if l.Scope() != nil {
				t.Error("a descendant is still in the scope after it ended")
			}
			charge(l)
		})
		p.EndScope()
		charge(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ledger.Scope(lead); got != 3 || ledger.Total != 6 {
		t.Errorf("scope charged %d times after it ended, total %d; want 3 and 6", got, ledger.Total)
	}
	if got := ledger.Scope(lead); got != 0 || len(ledger.scopes) != 0 {
		t.Errorf("an ended scope read twice reads %d, %d scopes kept", got, len(ledger.scopes))
	}
}

// TestNestedScopeRestoresTheOuter: a scope led inside another takes the
// charges of its leader and of what that spawns meanwhile, and the outer
// takes none of them; EndScope puts the leader back in the outer scope,
// and a child of the inner scope that outlives it charges nobody. Each
// ended scope's ledger entry reads once, then reads zero.
func TestNestedScopeRestoresTheOuter(t *testing.T) {
	s := New(1)
	var ledger Ledger[int]
	charge := func(p *Proc) { ledger.Charge(p, func(n *int) { *n++ }) }
	var outer, inner *Scope
	s.Spawn("lead", func(p *Proc) {
		outer = p.LeadScope()
		charge(p)
		inner = p.LeadScope()
		if p.Scope() != inner {
			t.Error("the leader is not in the scope it just led")
		}
		charge(p)
		p.Spawn("late", func(c *Proc) {
			charge(c)
			c.Sleep(1)
			charge(c) // after the inner scope ended
		})
		p.Sleep(0)
		p.EndScope()
		if p.Scope() != outer {
			t.Error("EndScope of the inner scope left the leader outside the outer one")
		}
		if got := ledger.Scope(inner); got != 2 {
			t.Errorf("inner scope charged %d times, want 2 (leader, child)", got)
		}
		charge(p)
		p.Sleep(2)
		p.EndScope()
		if p.Scope() != nil {
			t.Error("the leader is in a scope after ending both")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ledger.Scope(outer); got != 2 || ledger.Total != 5 {
		t.Errorf("outer scope charged %d times, total %d; want 2 and 5", got, ledger.Total)
	}
	if a, b := ledger.Scope(inner), ledger.Scope(outer); a != 0 || b != 0 || len(ledger.scopes) != 0 {
		t.Errorf("ended scopes read twice read %d and %d, %d scopes kept", a, b, len(ledger.scopes))
	}
}

// TestLedgerChargeAllocatesNothing: only a scope's first charge makes its
// counters; every later charge, a charge that captures what it adds, and
// a charge outside any scope cost nothing.
func TestLedgerChargeAllocatesNothing(t *testing.T) {
	s := New(1)
	var ledger Ledger[[4]int64]
	s.Spawn("lead", func(p *Proc) {
		p.LeadScope()
		n := int64(7)
		add := func() { ledger.Charge(p, func(m *[4]int64) { m[1] += n }) }
		add()
		if allocs := testing.AllocsPerRun(100, add); allocs != 0 {
			t.Errorf("a charge to a charged scope allocates %.0f times", allocs)
		}
		p.EndScope()
		if allocs := testing.AllocsPerRun(100, add); allocs != 0 {
			t.Errorf("a charge outside any scope allocates %.0f times", allocs)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProcSizeClass: a process, with its scope pointer and its name's
// number, stays in the 96-byte size class. gateway-scale allocates one
// a job, all that the job's Spawn allocates.
func TestProcSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 96 {
		t.Errorf("Proc is %d bytes, want at most 96", got)
	}
}
