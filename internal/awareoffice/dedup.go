package awareoffice

// dedupWindowBits is the number of recent sequence numbers tracked per
// source: 1024 bits = 128 bytes per publisher, enough to cover any
// realistic reordering (retransmit backoff, jitter, duplicates) while
// keeping receiver state bounded no matter how long the simulation runs.
const dedupWindowBits = 1024

// seqDedup is a wraparound-aware duplicate detector keyed by
// (source, sequence). The wire encodes sequence numbers in 16 bits, so a
// long-running publisher wraps from 65535 back to 0; naive "have I seen
// this seq" maps would both misclassify post-wrap events as duplicates and
// grow without bound. seqDedup instead keeps, per source, a sliding bitmap
// over the last dedupWindowBits sequence numbers below the highest seen,
// comparing sequences with RFC 1982 serial-number arithmetic.
//
// A sequence far behind the window (more than dedupWindowBits in the
// past) is treated as a publisher reboot with sequence reset: the window
// restarts at that sequence instead of rejecting the reborn node forever.
type seqDedup struct {
	sources map[string]*sourceWindow
}

// sourceWindow is one publisher's sliding duplicate window.
type sourceWindow struct {
	primed  bool
	highest uint16
	// bits[i/64]>>(i%64) tracks seq (highest − i); bit 0 is highest itself.
	bits [dedupWindowBits / 64]uint64
}

// Seen records the sequence and reports whether it was already present.
func (d *seqDedup) Seen(source string, seq int) bool {
	if d.sources == nil {
		d.sources = make(map[string]*sourceWindow)
	}
	w, ok := d.sources[source]
	if !ok {
		w = &sourceWindow{}
		d.sources[source] = w
	}
	return w.seen(uint16(seq))
}

// Sources returns the number of publishers currently tracked.
//
//lint:ignore unused TestCameraDedupStateBounded probes the dedup window with it
func (d *seqDedup) Sources() int { return len(d.sources) }

// seen advances or probes the window for one 16-bit sequence number.
func (w *sourceWindow) seen(s uint16) bool {
	if !w.primed {
		w.reset(s)
		return false
	}
	// RFC 1982 serial comparison: positive delta means s is newer.
	delta := int(int16(s - w.highest))
	switch {
	case delta > 0:
		w.advance(delta)
		w.highest = s
		w.bits[0] |= 1
		return false
	case delta == 0:
		return true
	case -delta >= dedupWindowBits:
		// Too old to sit in the window: a rebooted publisher restarting
		// its numbering (or an absurdly late packet). Restart the window
		// so the reborn node is not rejected forever.
		w.reset(s)
		return false
	default:
		off := -delta
		word, bit := off/64, uint(off%64)
		if w.bits[word]&(1<<bit) != 0 {
			return true
		}
		w.bits[word] |= 1 << bit
		return false
	}
}

// reset restarts the window at sequence s with only s marked.
func (w *sourceWindow) reset(s uint16) {
	*w = sourceWindow{primed: true, highest: s}
	w.bits[0] = 1
}

// advance shifts the bitmap by n positions toward older sequences.
func (w *sourceWindow) advance(n int) {
	if n >= dedupWindowBits {
		w.bits = [dedupWindowBits / 64]uint64{}
		return
	}
	words, bits := n/64, uint(n%64)
	for i := len(w.bits) - 1; i >= 0; i-- {
		var v uint64
		if i-words >= 0 {
			v = w.bits[i-words] << bits
			if bits > 0 && i-words-1 >= 0 {
				v |= w.bits[i-words-1] >> (64 - bits)
			}
		}
		w.bits[i] = v
	}
}
