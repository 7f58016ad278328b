package serve

import (
	"fmt"
	"testing"
)

func TestRingValidates(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) accepted")
	}
	if _, err := NewRing(-1); err == nil {
		t.Error("NewRing(-1) accepted")
	}
}

func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("source-%d", i))
		sa, sb := a.Shard(key), b.Shard(key)
		if sa != sb {
			t.Fatalf("key %q: %d vs %d across identical rings", key, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("key %q: shard %d outside [0,4)", key, sa)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const shards, keys = 8, 16000
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		node := PenNode(i)
		counts[r.Shard(node[:])]++
	}
	// Consistent hashing with 64 vnodes per shard is not perfectly
	// uniform; require every shard to land within a loose factor of the
	// fair share so gross imbalance (or a dead shard) fails.
	fair := keys / shards
	for s, c := range counts {
		if c < fair/4 || c > fair*4 {
			t.Errorf("shard %d holds %d keys, fair share %d", s, c, fair)
		}
	}
}

func TestRingStability(t *testing.T) {
	const keys = 8000
	small, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := PenNode(i)
		if small.Shard(key[:]) != big.Shard(key[:]) {
			moved++
		}
	}
	// Growing 4 → 5 shards should remap roughly 1/5 of the keys; a naive
	// modulo map would remap ~4/5. Accept anything clearly on the
	// consistent side.
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Errorf("%.0f%% of keys moved adding one shard; want the consistent-hash minority", frac*100)
	}
}

func TestRingShardsAccessor(t *testing.T) {
	r, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Shards(); got != 3 {
		t.Errorf("Shards() = %d, want 3", got)
	}
}
