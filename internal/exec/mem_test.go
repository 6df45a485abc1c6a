package exec

import (
	"errors"
	"sync"
	"testing"
)

func TestMemAccountGrowShrinkPeak(t *testing.T) {
	a := NewMemAccount(1000)
	if err := a.Grow("op", 600); err != nil {
		t.Fatal(err)
	}
	if err := a.Grow("op", 300); err != nil {
		t.Fatal(err)
	}
	if got := a.used.Load(); got != 900 {
		t.Fatalf("used = %d, want 900", got)
	}
	err := a.Grow("hash join build", 200)
	if err == nil {
		t.Fatal("overflow Grow succeeded")
	}
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("overflow error %v does not match sentinel", err)
	}
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("overflow error %T is not *BudgetExceededError", err)
	}
	if be.Op != "hash join build" || be.NeedBytes != 200 || be.BudgetBytes != 1000 || be.UsedBytes != 900 {
		t.Fatalf("error fields wrong: %+v", be)
	}
	a.Shrink(500)
	if got := a.used.Load(); got != 400 {
		t.Fatalf("used after shrink = %d, want 400", got)
	}
	if got := a.Peak(); got != 900 {
		t.Fatalf("peak = %d, want 900", got)
	}
	if got := a.Available(); got != 600 {
		t.Fatalf("available = %d, want 600", got)
	}
}

func TestMemAccountUnlimitedAndNil(t *testing.T) {
	var nilAcc *MemAccount
	if err := nilAcc.Grow("op", 1<<40); err != nil {
		t.Fatalf("nil account failed: %v", err)
	}
	nilAcc.Shrink(5)
	nilAcc.NotePeak(5)
	unlimited := NewMemAccount(0)
	if err := unlimited.Grow("op", 1<<40); err != nil {
		t.Fatalf("unlimited account failed: %v", err)
	}
	if unlimited.Available() < 1<<40 {
		t.Fatal("unlimited account reports small availability")
	}
}

func TestMemAccountNotePeakDoesNotReserve(t *testing.T) {
	a := NewMemAccount(100)
	a.NotePeak(1 << 20)
	if a.used.Load() != 0 {
		t.Fatal("NotePeak reserved memory")
	}
	if a.Peak() != 1<<20 {
		t.Fatalf("peak = %d", a.Peak())
	}
	// The budget is still fully available.
	if err := a.Grow("op", 100); err != nil {
		t.Fatalf("Grow after NotePeak failed: %v", err)
	}
}

func TestMemAccountGrowFloor(t *testing.T) {
	a := NewMemAccount(100)
	// Within the floor: granted even though it exceeds the budget.
	if err := a.GrowFloor("part", 5000, 0, 64<<10); err != nil {
		t.Fatalf("floored grow failed: %v", err)
	}
	if a.used.Load() != 5000 {
		t.Fatalf("used = %d", a.used.Load())
	}
	// Beyond the floor: back to budget enforcement.
	if err := a.GrowFloor("part", 70<<10, 5000, 64<<10); err == nil {
		t.Fatal("grow past floor and budget succeeded")
	}
	a.Shrink(5000)
}

// TestMemAccountConcurrentGrow: workers racing on one account never push
// usage past the budget, and every successful Grow is balanced by Shrink.
func TestMemAccountConcurrentGrow(t *testing.T) {
	const budget = 1 << 20
	a := NewMemAccount(budget)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := a.Grow("op", 1024); err == nil {
					if a.used.Load() > budget {
						t.Error("usage exceeded budget")
					}
					a.Shrink(1024)
				}
			}
		}()
	}
	wg.Wait()
	if a.used.Load() != 0 {
		t.Fatalf("unbalanced account: used = %d", a.used.Load())
	}
}
