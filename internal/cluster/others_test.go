package cluster

import (
	"errors"
	"math"
	"testing"
)

func TestMountainFindsBlobPeaks(t *testing.T) {
	data := threeBlobs(7, 40)
	res, err := Mountain(data, MountainConfig{GridPerDim: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) < 3 {
		t.Fatalf("found %d peaks, want >= 3", len(res.Centers))
	}
	for _, truth := range [][]float64{{0, 0}, {5, 5}, {0, 5}} {
		best := math.Inf(1)
		for _, c := range res.Centers {
			if d := math.Sqrt(sqDist(truth, c)); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Errorf("no peak near %v (closest %.2f)", truth, best)
		}
	}
}

func TestMountainGridDependence(t *testing.T) {
	// The paper rejects mountain clustering for being "highly dependent on
	// the grid structure": a coarse grid must quantize the centers.
	data := threeBlobs(8, 40)
	coarse, err := Mountain(data, MountainConfig{GridPerDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With a 3-vertex grid, every center coordinate sits on the quantized
	// lattice {min, mid, max} per dimension — never on the actual blob
	// means unless they coincide with lattice points.
	b, _ := newBounds(data)
	for _, c := range coarse.Centers {
		for j, v := range c {
			norm := (v - b.min[j]) / b.span[j]
			onLattice := false
			for _, g := range []float64{0, 0.5, 1} {
				if math.Abs(norm-g) < 1e-9 {
					onLattice = true
				}
			}
			if !onLattice {
				t.Errorf("center coordinate %v not on the 3-point lattice", v)
			}
		}
	}
}

func TestMountainRejectsHighDims(t *testing.T) {
	row := make([]float64, 8)
	if _, err := Mountain([][]float64{row, row}, MountainConfig{}); !errors.Is(err, ErrBadParam) {
		t.Errorf("err = %v, want ErrBadParam for 8 dims", err)
	}
}

func TestMountainErrors(t *testing.T) {
	if _, err := Mountain(nil, MountainConfig{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: %v", err)
	}
	bad := []MountainConfig{
		{GridPerDim: 1},
		{Sigma: -1},
		{StopRatio: 2},
		{MaxClusters: -1},
	}
	for i, cfg := range bad {
		if _, err := Mountain([][]float64{{1}, {2}}, cfg); !errors.Is(err, ErrBadParam) {
			t.Errorf("bad config %d: %v", i, err)
		}
	}
}

func TestFCMThreeBlobs(t *testing.T) {
	data := threeBlobs(12, 40)
	res, err := FCM(data, FCMConfig{C: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, truth := range [][]float64{{0, 0}, {5, 5}, {0, 5}} {
		best := math.Inf(1)
		for _, c := range res.Centers {
			if d := math.Sqrt(sqDist(truth, c)); d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Errorf("no FCM center near %v (closest %.2f)", truth, best)
		}
	}
}

func TestFCMMembershipRowsSumToOne(t *testing.T) {
	data := threeBlobs(13, 20)
	res, err := FCM(data, FCMConfig{C: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Memberships {
		var sum float64
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("membership out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestFCMErrors(t *testing.T) {
	if _, err := FCM(nil, FCMConfig{C: 2}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: %v", err)
	}
	if _, err := FCM([][]float64{{1}}, FCMConfig{C: 5}); !errors.Is(err, ErrBadParam) {
		t.Errorf("c>n: %v", err)
	}
	if _, err := FCM([][]float64{{1}, {2}}, FCMConfig{C: 2, Fuzziness: 1}); !errors.Is(err, ErrBadParam) {
		t.Errorf("fuzziness=1: %v", err)
	}
	if _, err := FCM([][]float64{{1}, {1, 2}}, FCMConfig{C: 1}); !errors.Is(err, ErrRagged) {
		t.Errorf("ragged: %v", err)
	}
}

func BenchmarkSubtractive(b *testing.B) {
	data := threeBlobs(1, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Subtractive(data, SubtractiveConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
