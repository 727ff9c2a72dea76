package core

import (
	"testing"

	"roadside/internal/utility"
)

// TestFingerprintStableAcrossWorkers pins the arena digest on the Fig. 4
// fixture: construction at any worker count must produce bit-identical
// arenas, and the digest must actually depend on the instance.
func TestFingerprintStableAcrossWorkers(t *testing.T) {
	p := fig4Problem(t, utility.Linear{D: 6})
	serial, err := NewEngineWorkers(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Fingerprint()
	if want == 0 {
		t.Fatal("suspicious zero fingerprint")
	}
	for _, workers := range []int{2, 4, 8} {
		e, err := NewEngineWorkers(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Fingerprint(); got != want {
			t.Errorf("workers=%d: fingerprint %x, want %x", workers, got, want)
		}
	}
	// A different instance digests differently.
	mod := fig4Problem(t, utility.Linear{D: 6})
	mod.Shop = mod.Shop + 1
	me, err := NewEngineWorkers(mod, 1)
	if err != nil {
		t.Fatal(err)
	}
	if me.Fingerprint() == want {
		t.Error("moving the shop left the fingerprint unchanged")
	}
}

// TestWorkerHooksMatchPublicAPI pins that the audit hooks are the public
// solvers with the worker knob exposed.
func TestWorkerHooksMatchPublicAPI(t *testing.T) {
	p := fig4Problem(t, utility.Linear{D: 6})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	type runner struct {
		name   string
		public func(*Engine) (*Placement, error)
		hook   func(*Engine, int) (*Placement, error)
	}
	for _, r := range []runner{
		{"algorithm1", Algorithm1, Algorithm1Workers},
		{"algorithm2", Algorithm2, Algorithm2Workers},
		{"combined", GreedyCombined, GreedyCombinedWorkers},
	} {
		want, err := r.public(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := r.hook(e, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := SamePlacement(want, got); err != nil {
				t.Errorf("%s workers=%d: %v", r.name, workers, err)
			}
		}
	}
}
