package serve

import "fmt"

// Ring maps source identifiers onto shards with Lamping and Veach's jump
// consistent hash ("A Fast, Minimal Memory, Consistent Hash Algorithm",
// 2014) over the source's FNV-1a hash. The map is a pure function of the
// shard count, it spreads sources evenly, and growing from n to n+1
// shards moves only ~1/(n+1) of them. It needs no table and no search.
type Ring struct {
	shards int
}

// NewRing builds the map for n shards.
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: ring needs at least one shard, got %d", n)
	}
	return &Ring{shards: n}, nil
}

// Shard returns the shard owning the source identifier. The lookup is
// allocation-free and lock-free.
func (r *Ring) Shard(source []byte) int {
	key := fnv64a(source)
	b, j := int64(-1), int64(0)
	for j < int64(r.shards) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64(key>>33+1)))
	}
	return int(b)
}

// fnv64a is the FNV-1a 64-bit hash — stable across processes and
// architectures, unlike Go's randomized map hash.
func fnv64a(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
