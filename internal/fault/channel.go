package fault

import (
	"fmt"
	"math/rand"

	"cqm/internal/obs"
)

// Metric names of the channel-layer fault models.
const (
	// MetricChannelDrops counts deliveries dropped by a burst channel, by
	// channel state.
	MetricChannelDrops = "fault_channel_drops_total"
	// MetricFramesTruncated counts frames cut short in flight.
	MetricFramesTruncated = "fault_frames_truncated_total"
)

// GilbertElliott is the two-state burst-loss channel: a Markov chain over
// a good and a bad state with independent per-state loss probabilities.
// Radio links fail in bursts — interference, a closing door, a passing
// body — not as i.i.d. coin flips, and retransmission policies behave very
// differently under the two regimes. The model satisfies the
// awareoffice.LossModel interface structurally.
//
// The chain is stepped once per delivery decision, so burst lengths are
// measured in deliveries, matching the per-delivery loss semantics of the
// plain Link.
type GilbertElliott struct {
	// PGoodBad is the per-decision probability of entering the bad state.
	PGoodBad float64
	// PBadGood is the per-decision probability of leaving the bad state.
	PBadGood float64
	// LossGood is the drop probability while in the good state.
	LossGood float64
	// LossBad is the drop probability while in the bad state.
	LossBad float64

	bad     bool
	drops   int
	decided int
	metGood *obs.Counter
	metBad  *obs.Counter
}

// Validate checks the channel parameters.
//
//lint:ignore unused the Gilbert-Elliott tests check their parameters through it
func (g *GilbertElliott) Validate() error {
	for _, p := range []float64{g.PGoodBad, g.PBadGood, g.LossGood, g.LossBad} {
		if p < 0 || p > 1 {
			return fmt.Errorf("%w: Gilbert–Elliott probability %v", ErrBadFault, p)
		}
	}
	return nil
}

// Instrument registers the channel's drop counters (by state) on reg; a
// nil registry turns instrumentation off.
func (g *GilbertElliott) Instrument(reg *obs.Registry) {
	if reg == nil {
		g.metGood, g.metBad = nil, nil
		return
	}
	reg.Help(MetricChannelDrops, "Deliveries dropped by a burst channel, by state.")
	g.metGood = reg.Counter(MetricChannelDrops, "state", "good")
	g.metBad = reg.Counter(MetricChannelDrops, "state", "bad")
}

// Drop steps the chain once and decides whether this delivery is lost.
// Exactly two rng draws are consumed per decision, keeping downstream
// randomness aligned regardless of the outcome.
func (g *GilbertElliott) Drop(rng *rand.Rand) bool {
	transition := rng.Float64()
	if g.bad {
		if transition < g.PBadGood {
			g.bad = false
		}
	} else {
		if transition < g.PGoodBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	g.decided++
	if rng.Float64() < p {
		g.drops++
		if g.bad {
			g.metBad.Inc()
		} else {
			g.metGood.Inc()
		}
		return true
	}
	return false
}

// Bad reports whether the channel currently sits in the bad state.
//
//lint:ignore unused TestGilbertElliottValidateAndInstrument probes the channel state with it
func (g *GilbertElliott) Bad() bool { return g.bad }

// Drops returns the number of deliveries the channel has eaten.
func (g *GilbertElliott) Drops() int { return g.drops }

// Decisions returns the number of Drop decisions taken.
func (g *GilbertElliott) Decisions() int { return g.decided }

// StationaryLoss returns the channel's analytic long-run loss rate:
// π_bad·LossBad + π_good·LossGood with π_bad = PGoodBad/(PGoodBad+PBadGood).
// With both transition probabilities zero the chain never leaves its
// initial (good) state and the rate is LossGood.
func (g *GilbertElliott) StationaryLoss() float64 {
	denom := g.PGoodBad + g.PBadGood
	if denom == 0 {
		return g.LossGood
	}
	piBad := g.PGoodBad / denom
	return piBad*g.LossBad + (1-piBad)*g.LossGood
}

// BurstLoss returns a channel tuned for a target average loss rate
// delivered in bursts: the bad state drops everything, dwells ~4
// deliveries (PBadGood = 0.25), and is entered just often enough that the
// stationary loss equals rate. rate is clamped to [0, 0.8].
func BurstLoss(rate float64) *GilbertElliott {
	if rate < 0 {
		rate = 0
	}
	if rate > 0.8 {
		rate = 0.8
	}
	const pBadGood = 0.25
	// rate = pGoodBad / (pGoodBad + pBadGood) with LossBad = 1 solves to:
	pGoodBad := 0.0
	if rate > 0 {
		pGoodBad = rate * pBadGood / (1 - rate)
	}
	return &GilbertElliott{PGoodBad: pGoodBad, PBadGood: pBadGood, LossBad: 1}
}

// Truncate is a frame-layer fault: with probability Prob an encoded
// Particle frame is cut to a random shorter length before it reaches the
// receiver — a collision or an early carrier loss. Truncated frames fail
// the receiver's length check and are dropped like CRC failures. It
// satisfies the awareoffice.FrameFault interface structurally.
type Truncate struct {
	// Prob is the per-frame truncation probability.
	Prob float64

	truncated int
	met       *obs.Counter
}

// Validate checks the truncation probability.
//
//lint:ignore unused TestTruncateCutsFrames checks Corrupt with it
func (t *Truncate) Validate() error {
	if t.Prob < 0 || t.Prob > 1 {
		return fmt.Errorf("%w: truncate probability %v", ErrBadFault, t.Prob)
	}
	return nil
}

// Instrument registers the truncation counter on reg; a nil registry turns
// instrumentation off.
//
//lint:ignore unused TestTruncateCutsFrames checks Corrupt with it
func (t *Truncate) Instrument(reg *obs.Registry) {
	if reg == nil {
		t.met = nil
		return
	}
	reg.Help(MetricFramesTruncated, "Frames cut short in flight by the truncation fault.")
	t.met = reg.Counter(MetricFramesTruncated)
}

// Corrupt cuts the frame with probability Prob. Exactly one rng draw is
// consumed per unaffected frame, two per truncated one.
func (t *Truncate) Corrupt(frame []byte, rng *rand.Rand) []byte {
	if rng.Float64() >= t.Prob || len(frame) == 0 {
		return frame
	}
	t.truncated++
	t.met.Inc()
	return frame[:rng.Intn(len(frame))]
}

// Truncated returns the number of frames cut so far.
//
//lint:ignore unused TestTruncateCutsFrames checks Corrupt with it
func (t *Truncate) Truncated() int { return t.truncated }
