package exec

import (
	"errors"
	"testing"
)

func TestMemAccountParentCharging(t *testing.T) {
	pool := NewMemAccount(1000)
	q1 := NewMemAccountWithParent(600, pool)
	q2 := NewMemAccountWithParent(600, pool)

	if err := q1.Grow("op", 500); err != nil {
		t.Fatal(err)
	}
	if pool.Used() != 500 {
		t.Fatalf("pool.Used = %d, want 500", pool.Used())
	}
	// q2 fits its own budget but not the pool remainder: typed error, and the
	// failed local reservation is rolled back.
	err := q2.Grow("op", 600)
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("pool-exhausted Grow = %v, want ErrMemoryBudgetExceeded", err)
	}
	if q2.Used() != 0 {
		t.Fatalf("q2.Used after failed Grow = %d, want 0 (rolled back)", q2.Used())
	}
	// A smaller reservation still fits.
	if err := q2.Grow("op", 400); err != nil {
		t.Fatal(err)
	}
	if pool.Used() != 900 {
		t.Fatalf("pool.Used = %d, want 900", pool.Used())
	}
	// Shrink releases on both levels.
	q1.Shrink(500)
	if pool.Used() != 400 || q1.Used() != 0 {
		t.Fatalf("after shrink: pool=%d q1=%d", pool.Used(), q1.Used())
	}
}

func TestMemAccountFloorChargesParent(t *testing.T) {
	pool := NewMemAccount(100)
	q := NewMemAccountWithParent(100, pool)
	// Floor grants succeed even past the pool budget (bounded overshoot) but
	// must still be visible in the pool's books.
	if err := q.GrowFloor("op", 150, 0, 200); err != nil {
		t.Fatal(err)
	}
	if pool.Used() != 150 || q.Used() != 150 {
		t.Fatalf("floor grant not charged through: pool=%d q=%d", pool.Used(), q.Used())
	}
	// Beyond the floor the pool budget applies again.
	if err := q.GrowFloor("op", 100, 150, 200); !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("beyond-floor GrowFloor = %v, want ErrMemoryBudgetExceeded", err)
	}
	q.Shrink(150)
	if pool.Used() != 0 {
		t.Fatalf("pool.Used after release = %d, want 0", pool.Used())
	}
}

// TestMemAccountAvailableHonorsParent: what a spilling operator sizes its
// partitions by is the room under both budgets — an unlimited query account
// under a nearly full pool has almost none.
func TestMemAccountAvailableHonorsParent(t *testing.T) {
	pool := NewMemAccount(1000)
	unlimited, capped := NewMemAccountWithParent(0, pool), NewMemAccountWithParent(300, pool)
	if err := unlimited.Grow("op", 800); err != nil {
		t.Fatal(err)
	}
	if got := unlimited.Available(); got != 200 {
		t.Errorf("unlimited query under the pool: Available = %d, want 200", got)
	}
	if got := capped.Available(); got != 200 {
		t.Errorf("300-byte query under the pool: Available = %d, want 200", got)
	}
	unlimited.Shrink(800)
	if got := capped.Available(); got != 300 {
		t.Errorf("300-byte query under an empty pool: Available = %d, want 300", got)
	}
	if got := NewMemAccount(0).Available(); got != 1<<62 {
		t.Errorf("unlimited account without a pool: Available = %d", got)
	}
}
