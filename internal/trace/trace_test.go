package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"cqm/internal/sensor"
)

func sampleRecording(t testing.TB, seed int64) []sensor.Reading {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	readings, err := sensor.OfficeSession(sensor.DefaultStyle()).Run(rng)
	if err != nil {
		t.Fatal(err)
	}
	return readings
}

func TestWriteReadRoundTrip(t *testing.T) {
	readings := sampleRecording(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, readings); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(readings) {
		t.Fatalf("round trip lost readings: %d vs %d", len(back), len(readings))
	}
	for i := range readings {
		if back[i] != readings[i] {
			t.Fatalf("reading %d differs: %+v vs %+v", i, back[i], readings[i])
		}
	}
}

func TestWriteEmpty(t *testing.T) {
	if err := Write(&bytes.Buffer{}, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestReadErrors(t *testing.T) {
	readings := sampleRecording(t, 2)[:10]
	var buf bytes.Buffer
	if err := Write(&buf, readings); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrMagic) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 99
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(good[:5])); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(good[:len(good)-7])); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("absurd count", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[5], bad[6], bad[7], bad[8] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		readings := make([]sensor.Reading, n)
		contexts := sensor.AllContexts()
		for i := range readings {
			readings[i] = sensor.Reading{
				T: r.Float64() * 100,
				Accel: sensor.Accel{
					X: r.NormFloat64(),
					Y: r.NormFloat64(),
					Z: r.NormFloat64(),
				},
				Truth: contexts[r.Intn(len(contexts))],
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, readings); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil || len(back) != n {
			return false
		}
		for i := range readings {
			if back[i] != readings[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrainOnReplayedTrace(t *testing.T) {
	// The methodology the package exists for: persist a session, replay
	// it, and get the identical dataset back.
	readings := sampleRecording(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, readings); err != nil {
		t.Fatal(err)
	}
	replayed, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(readings) {
		t.Fatal("replay length mismatch")
	}
	for i := range readings {
		if replayed[i] != readings[i] {
			t.Fatal("replayed trace differs from live capture")
		}
	}
}

func TestReadHostileCountAllocation(t *testing.T) {
	// A corrupt count field must not translate into a giant up-front
	// allocation: the header below promises 60 Mi readings (~2 GiB of
	// slice) but delivers zero bytes. Read must fail with ErrTruncated
	// while allocating no more than the small initial capacity.
	header := make([]byte, headerLen)
	copy(header, magic)
	header[4] = version
	binary.BigEndian.PutUint32(header[5:9], maxReadings-1)

	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Read(bytes.NewReader(header)); !errors.Is(err, ErrTruncated) {
			t.Errorf("Read = %v, want ErrTruncated", err)
		}
	})
	// The exact count is incidental; the point is it stays O(1) — a
	// ~2 GiB slice would also be caught by the test blowing the heap.
	if allocs > 16 {
		t.Errorf("Read of hostile header made %.0f allocations", allocs)
	}
}

func TestReadCountBeyondInitialAlloc(t *testing.T) {
	// Streams honestly larger than the initial capacity still round-trip:
	// the slice grows by appending past initialAlloc.
	readings := sampleRecording(t, 9)
	for len(readings) <= initialAlloc {
		readings = append(readings, readings...)
	}
	readings = readings[:initialAlloc+17]
	for i := range readings {
		readings[i].T = float64(i) * 0.01
	}
	var buf bytes.Buffer
	if err := Write(&buf, readings); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(readings) {
		t.Fatalf("got %d readings, want %d", len(back), len(readings))
	}
	for i := range readings {
		if back[i] != readings[i] {
			t.Fatalf("reading %d differs after round trip", i)
		}
	}
}
