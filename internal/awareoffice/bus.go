package awareoffice

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// Reliability errors.
var (
	// ErrBadReliability reports invalid retransmission parameters.
	ErrBadReliability = errors.New("awareoffice: invalid reliability parameters")
	// ErrBusClosed reports a publish attempted after Close.
	ErrBusClosed = errors.New("awareoffice: bus closed")
)

// Event is one context broadcast: an appliance announces the context it
// recognized, optionally annotated with the CQM quality value — the
// interconnection the paper proposes so receivers can judge how much to
// trust the classification.
type Event struct {
	// Source is the publishing appliance's name.
	Source string
	// Context is the recognized context class.
	Context sensor.Context
	// Quality is the CQM q for this classification; valid when HasQuality.
	Quality float64
	// HasQuality distinguishes annotated events from legacy ones; an
	// ε-state classification is published with HasQuality=false.
	HasQuality bool
	// Sent is the virtual time the event was published.
	Sent float64
	// Seq is the publisher's sequence number (detects duplicates). The
	// wire encodes it in 16 bits, so receivers must treat it as wrapping
	// modulo 65536.
	Seq int
}

// LossModel is a stateful drop decision replacing a Link's i.i.d. Loss
// probability — burst channels like fault.GilbertElliott. A model attached
// to the default link is shared by every subscriber without an override,
// which correlates their loss bursts exactly like a shared radio medium;
// use SetLink with per-subscriber models for independent channels.
type LossModel interface {
	// Drop decides whether one delivery is lost, drawing only from rng.
	Drop(rng *rand.Rand) bool
}

// FrameFault mutates an encoded Particle frame in flight — truncation,
// targeted bit damage — before the receiver decodes it. Frames that fail
// the length or CRC check afterwards are dropped and counted as corrupted,
// exactly like bit-error losses.
type FrameFault interface {
	// Corrupt returns the (possibly shortened or altered) frame, drawing
	// only from rng.
	Corrupt(frame []byte, rng *rand.Rand) []byte
}

// Link models one directed network path: constant latency plus uniform
// jitter, independent loss and duplication probabilities, and an optional
// physical bit-error rate applied to the AwareCon wire encoding.
type Link struct {
	// Latency is the base one-way delay in seconds.
	Latency float64
	// Jitter adds uniform [0, Jitter) extra delay per delivery.
	Jitter float64
	// Loss is the probability a delivery is dropped. Ignored when
	// LossModel is set.
	Loss float64
	// Duplicate is the probability a delivery arrives twice.
	Duplicate float64
	// BitErrorRate is the per-bit corruption probability of the radio
	// medium. When positive, every delivery is serialized into a Particle
	// frame (internal/particle), each bit flipped independently with this
	// probability, and decoded by the receiver; frames failing the CRC
	// are dropped, exactly like real hardware.
	BitErrorRate float64
	// LossModel, when non-nil, replaces Loss with a stateful decision —
	// the hook for burst channels.
	LossModel LossModel
	// FrameFault, when non-nil, forces the wire encoding on every
	// delivery (even at BitErrorRate 0) and lets the fault mutate the
	// frame in flight.
	FrameFault FrameFault
}

func (l Link) validate() error {
	switch {
	case l.Latency < 0 || l.Jitter < 0:
		return fmt.Errorf("%w: latency %v jitter %v", ErrBadLink, l.Latency, l.Jitter)
	case l.Loss < 0 || l.Loss > 1:
		return fmt.Errorf("%w: loss %v", ErrBadLink, l.Loss)
	case l.Duplicate < 0 || l.Duplicate > 1:
		return fmt.Errorf("%w: duplicate %v", ErrBadLink, l.Duplicate)
	case l.BitErrorRate < 0 || l.BitErrorRate > 1:
		return fmt.Errorf("%w: bit error rate %v", ErrBadLink, l.BitErrorRate)
	default:
		return nil
	}
}

// wired reports whether deliveries must pass through the Particle wire
// encoding.
func (l Link) wired() bool { return l.BitErrorRate > 0 || l.FrameFault != nil }

// Reliability configures the publisher-side ack/retransmit layer: when a
// delivery is lost (link loss or corruption), the bus re-attempts it after
// an exponentially growing backoff in virtual time, up to MaxRetries
// times. Receivers still deduplicate by (source, sequence) — the paper's
// at-least-once semantics with receiver-side suppression.
type Reliability struct {
	// MaxRetries bounds the re-attempts per delivery. Default 3.
	MaxRetries int
	// BaseBackoff is the first retry delay in virtual seconds; attempt n
	// waits BaseBackoff·2ⁿ. Default 0.05.
	BaseBackoff float64
	// MaxBackoff caps the exponential growth. Default 0.4.
	MaxBackoff float64
	// Jitter stretches each backoff by a uniform factor in [1, 1+Jitter),
	// decorrelating retry storms. 0 keeps backoff deterministic.
	Jitter float64
}

// DefaultReliability is the recommended retransmission policy: 3 retries,
// 50 ms base backoff doubling to a 400 ms cap, 25 % jitter.
func DefaultReliability() Reliability {
	return Reliability{MaxRetries: 3, BaseBackoff: 0.05, MaxBackoff: 0.4, Jitter: 0.25}
}

func (r Reliability) withDefaults() Reliability {
	if r.MaxRetries == 0 {
		r.MaxRetries = 3
	}
	if r.BaseBackoff == 0 {
		r.BaseBackoff = 0.05
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = 0.4
	}
	return r
}

func (r Reliability) validate() error {
	switch {
	case r.MaxRetries < 0:
		return fmt.Errorf("%w: max retries %d", ErrBadReliability, r.MaxRetries)
	case r.BaseBackoff <= 0 || r.MaxBackoff < r.BaseBackoff:
		return fmt.Errorf("%w: backoff base %v max %v", ErrBadReliability, r.BaseBackoff, r.MaxBackoff)
	case r.Jitter < 0:
		return fmt.Errorf("%w: jitter %v", ErrBadReliability, r.Jitter)
	default:
		return nil
	}
}

// backoff returns the retry delay after the given attempt number.
func (r Reliability) backoff(attempt int, rng *rand.Rand) float64 {
	d := r.BaseBackoff
	for i := 0; i < attempt && d < r.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	if r.Jitter > 0 {
		d *= 1 + r.Jitter*rng.Float64()
	}
	return d
}

// LinkStats accounts the deliveries attempted to one subscriber.
type LinkStats struct {
	// Delivered counts events scheduled for delivery (duplicates count
	// twice, exactly like on the wire).
	Delivered int
	// Dropped counts deliveries lost to link loss.
	Dropped int
	// Corrupted counts deliveries dropped by a CRC failure after bit
	// errors.
	Corrupted int
	// Duplicated counts deliveries that arrived twice.
	Duplicated int
	// Retransmits counts re-attempts scheduled by the reliability layer.
	Retransmits int
	// GaveUp counts deliveries abandoned after exhausting MaxRetries.
	GaveUp int
}

// PublisherStats is one publisher's send-window accounting under the
// reliability layer.
type PublisherStats struct {
	// Published counts events this publisher handed to Publish.
	Published int
	// Retransmits counts re-attempts scheduled for this publisher's
	// events across all subscribers.
	Retransmits int
	// GaveUp counts this publisher's deliveries abandoned after
	// exhausting retries.
	GaveUp int
	// Outstanding is the number of retransmissions currently scheduled
	// but not yet re-attempted — the open send window.
	Outstanding int
}

// BusStats is one consistent view of the bus's delivery accounting — the
// aggregate counters plus per-subscriber link statistics.
type BusStats struct {
	// Published counts events handed to Publish.
	Published int
	// Delivered counts deliveries scheduled across all subscribers.
	Delivered int
	// Dropped counts deliveries lost to link loss.
	Dropped int
	// Corrupted counts deliveries dropped by CRC failure.
	Corrupted int
	// Retransmits counts re-attempts scheduled by the reliability layer.
	Retransmits int
	// GaveUp counts deliveries abandoned after exhausting retries.
	GaveUp int
	// Subscribers maps each subscriber name to its link statistics.
	Subscribers map[string]LinkStats
	// Publishers maps each publisher name to its send-window statistics.
	Publishers map[string]PublisherStats
}

// Bus is the context broadcast medium: publish fans every event out to all
// subscribers over their links, applying loss, duplication, and delay in
// virtual time.
type Bus struct {
	sim         *Simulation
	defaultLink Link
	subscribers []*subscription
	links       map[string]Link // per-subscriber override
	stats       BusStats
	rel         *Reliability
	publishers  map[string]*publisherState
	reg         *obs.Registry
	met         busMetrics
	tracer      *quality.Tracer
	closed      bool
}

// busMetrics are the bus's pre-resolved aggregate counters; per-subscriber
// counters live on each subscription. Nil fields are no-ops.
type busMetrics struct {
	published *obs.Counter
}

// subMetrics are one subscriber's pre-resolved link counters.
type subMetrics struct {
	delivered   *obs.Counter
	dropped     *obs.Counter
	corrupted   *obs.Counter
	duplicated  *obs.Counter
	retransmits *obs.Counter
	gaveup      *obs.Counter
}

// publisherState tracks one publisher's send window with its pre-resolved
// counters.
type publisherState struct {
	stats PublisherStats
	met   pubMetrics
}

// pubMetrics are one publisher's pre-resolved send-window counters.
type pubMetrics struct {
	retransmits *obs.Counter
	gaveup      *obs.Counter
}

type subscription struct {
	name    string
	handler func(Event)
	stats   *LinkStats
	met     subMetrics
}

// NewBus returns a bus over the simulation with the given default link.
func NewBus(sim *Simulation, defaultLink Link) (*Bus, error) {
	if err := defaultLink.validate(); err != nil {
		return nil, err
	}
	return &Bus{
		sim:         sim,
		defaultLink: defaultLink,
		links:       make(map[string]Link),
		publishers:  make(map[string]*publisherState),
	}, nil
}

// Metric names of the bus layer.
const (
	// MetricBusPublished counts events published.
	MetricBusPublished = "awareoffice_bus_published_total"
	// MetricBusDelivered counts deliveries scheduled, per subscriber.
	MetricBusDelivered = "awareoffice_bus_delivered_total"
	// MetricBusDropped counts deliveries lost to link loss, per subscriber.
	MetricBusDropped = "awareoffice_bus_dropped_total"
	// MetricBusCorrupted counts CRC-failed deliveries, per subscriber.
	MetricBusCorrupted = "awareoffice_bus_corrupted_total"
	// MetricBusDuplicated counts duplicated deliveries, per subscriber.
	MetricBusDuplicated = "awareoffice_bus_duplicated_total"
	// MetricBusRetransmits counts reliability re-attempts, per subscriber.
	MetricBusRetransmits = "awareoffice_bus_retransmits_total"
	// MetricBusGaveUp counts deliveries abandoned after exhausting
	// retries, per subscriber.
	MetricBusGaveUp = "awareoffice_bus_gaveup_total"
	// MetricBusPublisherRetransmits counts re-attempts by publisher.
	MetricBusPublisherRetransmits = "awareoffice_bus_publisher_retransmits_total"
	// MetricBusPublisherGaveUp counts abandoned deliveries by publisher.
	MetricBusPublisherGaveUp = "awareoffice_bus_publisher_gaveup_total"
)

// Instrument registers the bus's delivery counters — the aggregate publish
// counter plus per-subscriber delivered/dropped/corrupted/duplicated
// series and per-publisher send-window counters — on reg. Existing and
// future subscribers and publishers are both covered; a nil registry turns
// instrumentation off.
func (b *Bus) Instrument(reg *obs.Registry) {
	b.reg = reg
	if reg == nil {
		b.met = busMetrics{}
		for _, sub := range b.subscribers {
			sub.met = subMetrics{}
		}
		for _, ps := range b.publishers {
			ps.met = pubMetrics{}
		}
		return
	}
	reg.Help(MetricBusPublished, "Context events published on the bus.")
	reg.Help(MetricBusDelivered, "Deliveries scheduled, by subscriber.")
	reg.Help(MetricBusDropped, "Deliveries lost to link loss, by subscriber.")
	reg.Help(MetricBusCorrupted, "Deliveries dropped by CRC failure, by subscriber.")
	reg.Help(MetricBusDuplicated, "Deliveries duplicated by the link, by subscriber.")
	reg.Help(MetricBusRetransmits, "Reliability re-attempts, by subscriber.")
	reg.Help(MetricBusGaveUp, "Deliveries abandoned after exhausting retries, by subscriber.")
	reg.Help(MetricBusPublisherRetransmits, "Reliability re-attempts, by publisher.")
	reg.Help(MetricBusPublisherGaveUp, "Abandoned deliveries, by publisher.")
	b.met = busMetrics{published: reg.Counter(MetricBusPublished)}
	for _, sub := range b.subscribers {
		sub.met = newSubMetrics(reg, sub.name)
	}
	for name, ps := range b.publishers {
		ps.met = newPubMetrics(reg, name)
	}
}

// newSubMetrics resolves one subscriber's labelled counters.
func newSubMetrics(reg *obs.Registry, name string) subMetrics {
	return subMetrics{
		delivered:   reg.Counter(MetricBusDelivered, "subscriber", name),
		dropped:     reg.Counter(MetricBusDropped, "subscriber", name),
		corrupted:   reg.Counter(MetricBusCorrupted, "subscriber", name),
		duplicated:  reg.Counter(MetricBusDuplicated, "subscriber", name),
		retransmits: reg.Counter(MetricBusRetransmits, "subscriber", name),
		gaveup:      reg.Counter(MetricBusGaveUp, "subscriber", name),
	}
}

// newPubMetrics resolves one publisher's labelled counters.
func newPubMetrics(reg *obs.Registry, name string) pubMetrics {
	return pubMetrics{
		retransmits: reg.Counter(MetricBusPublisherRetransmits, "publisher", name),
		gaveup:      reg.Counter(MetricBusPublisherGaveUp, "publisher", name),
	}
}

// Trace attaches a pipeline tracer: sampled deliveries record their
// drop, retransmit, and deliver stages with the subscriber in the
// detail. A nil tracer turns tracing off.
func (b *Bus) Trace(tr *quality.Tracer) {
	b.tracer = tr
}

// Subscribe registers a handler under the subscriber's name. Handlers run
// in virtual time when deliveries arrive.
func (b *Bus) Subscribe(name string, handler func(Event)) {
	sub := &subscription{name: name, handler: handler, stats: &LinkStats{}}
	if b.reg != nil {
		sub.met = newSubMetrics(b.reg, name)
	}
	b.subscribers = append(b.subscribers, sub)
}

// SetLink overrides the link used for deliveries to one subscriber —
// degrade or partition a single appliance. A loss of 1 is a partition.
//
//lint:ignore unused TestLinkValidation and the partition tests drive per-subscriber links through it
func (b *Bus) SetLink(subscriber string, link Link) error {
	if err := link.validate(); err != nil {
		return err
	}
	b.links[subscriber] = link
	return nil
}

// EnableReliability turns on publisher-side retransmission with the given
// policy (zero fields take defaults). Lost and corrupted deliveries are
// re-attempted after exponential backoff in virtual time until they
// succeed or MaxRetries is exhausted.
func (b *Bus) EnableReliability(cfg Reliability) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	b.rel = &cfg
	return nil
}

// linkFor resolves the link currently in effect for one subscriber.
func (b *Bus) linkFor(name string) Link {
	if l, ok := b.links[name]; ok {
		return l
	}
	return b.defaultLink
}

// publisher returns the send-window state for a source, creating it on
// first sight.
func (b *Bus) publisher(name string) *publisherState {
	ps, ok := b.publishers[name]
	if !ok {
		ps = &publisherState{}
		if b.reg != nil {
			ps.met = newPubMetrics(b.reg, name)
		}
		b.publishers[name] = ps
	}
	return ps
}

// Close shuts the bus down: every later Publish fails with ErrBusClosed.
// Deliveries and retransmissions already scheduled in virtual time still
// fire — Close fences new traffic, it does not tear down the simulation.
// Closing an already-closed bus is a no-op.
func (b *Bus) Close() {
	b.closed = true
}

// Closed reports whether the bus has been shut down.
//
//lint:ignore unused TestBusClose probes the bus with it
func (b *Bus) Closed() bool { return b.closed }

// Publish broadcasts the event to every subscriber except its source.
func (b *Bus) Publish(ev Event) error {
	if b.closed {
		return fmt.Errorf("%w: dropping publish from %s", ErrBusClosed, ev.Source)
	}
	b.stats.Published++
	b.met.published.Inc()
	b.publisher(ev.Source).stats.Published++
	for _, sub := range b.subscribers {
		if sub.name == ev.Source {
			continue
		}
		if err := b.attempt(sub, ev, 0); err != nil {
			return err
		}
	}
	return nil
}

// attempt runs one delivery attempt to one subscriber: the loss gate, the
// duplication gate, and per-delivery wire corruption and delay. Failed
// attempts are handed to the reliability layer (when enabled) for
// retransmission.
func (b *Bus) attempt(sub *subscription, ev Event, try int) error {
	link := b.linkFor(sub.name)
	var lost bool
	if link.LossModel != nil {
		lost = link.LossModel.Drop(b.sim.rng)
	} else {
		lost = b.sim.rng.Float64() < link.Loss
	}
	if lost {
		b.stats.Dropped++
		sub.stats.Dropped++
		sub.met.dropped.Inc()
		if b.tracer != nil {
			b.tracer.Record(ev.Seq, quality.StageDrop, b.sim.Now(), "loss:"+sub.name)
		}
		return b.retry(sub, ev, try)
	}
	deliveries := 1
	if b.sim.rng.Float64() < link.Duplicate {
		deliveries = 2
		sub.stats.Duplicated++
		sub.met.duplicated.Inc()
	}
	scheduled := false
	for d := 0; d < deliveries; d++ {
		event := ev
		if link.wired() {
			decoded, ok := b.transmit(ev, link)
			if !ok {
				b.stats.Corrupted++
				sub.stats.Corrupted++
				sub.met.corrupted.Inc()
				if b.tracer != nil {
					b.tracer.Record(ev.Seq, quality.StageDrop, b.sim.Now(), "corrupt:"+sub.name)
				}
				continue
			}
			event = decoded
		}
		delay := link.Latency
		if link.Jitter > 0 {
			delay += link.Jitter * b.sim.rng.Float64()
		}
		handler := sub.handler
		b.stats.Delivered++
		sub.stats.Delivered++
		sub.met.delivered.Inc()
		b.tracer.Record(ev.Seq, quality.StageDeliver, b.sim.Now()+delay, sub.name)
		if err := b.sim.Schedule(b.sim.Now()+delay, func() {
			handler(event)
		}); err != nil {
			return fmt.Errorf("awareoffice: scheduling delivery to %s: %w", sub.name, err)
		}
		scheduled = true
	}
	if !scheduled {
		// Every delivery of this attempt was corrupted on the wire.
		return b.retry(sub, ev, try)
	}
	return nil
}

// retry hands one failed attempt to the reliability layer: schedule a
// retransmission after backoff, or give up once retries are exhausted.
func (b *Bus) retry(sub *subscription, ev Event, try int) error {
	if b.rel == nil {
		return nil
	}
	ps := b.publisher(ev.Source)
	if try >= b.rel.MaxRetries {
		b.stats.GaveUp++
		sub.stats.GaveUp++
		sub.met.gaveup.Inc()
		ps.stats.GaveUp++
		ps.met.gaveup.Inc()
		if b.tracer != nil {
			b.tracer.Record(ev.Seq, quality.StageDrop, b.sim.Now(), "gaveup:"+sub.name)
		}
		return nil
	}
	b.stats.Retransmits++
	sub.stats.Retransmits++
	sub.met.retransmits.Inc()
	ps.stats.Retransmits++
	ps.met.retransmits.Inc()
	ps.stats.Outstanding++
	backoff := b.rel.backoff(try, b.sim.rng)
	if b.tracer != nil {
		b.tracer.Record(ev.Seq, quality.StageRetransmit, b.sim.Now()+backoff,
			"try"+strconv.Itoa(try+1)+":"+sub.name)
	}
	return b.sim.Schedule(b.sim.Now()+backoff, func() {
		ps.stats.Outstanding--
		// Delivery times are >= now, so the re-attempt cannot fail to
		// schedule.
		_ = b.attempt(sub, ev, try+1)
	})
}

// transmit runs the event through the Particle wire encoding with random
// bit corruption and any configured frame fault; ok is false when the
// receiver's length or CRC check rejects the frame.
func (b *Bus) transmit(ev Event, link Link) (Event, bool) {
	pkt := particle.ContextPacket{
		Type:       particle.TypeContext,
		Node:       particle.NodeIDFromString(ev.Source),
		Seq:        uint16(ev.Seq),
		SentMillis: uint32(ev.Sent * 1000),
		ClassID:    byte(ev.Context.ID()),
		Quality:    ev.Quality,
		HasQuality: ev.HasQuality,
	}
	frame, err := particle.Encode(pkt)
	if err != nil {
		return Event{}, false
	}
	if link.FrameFault != nil {
		frame = link.FrameFault.Corrupt(frame, b.sim.rng)
	}
	if link.BitErrorRate > 0 {
		for bit := 0; bit < len(frame)*8; bit++ {
			if b.sim.rng.Float64() < link.BitErrorRate {
				frame = particle.FlipBit(frame, bit)
			}
		}
	}
	return eventFromFrame(frame)
}

// eventFromFrame decodes one received frame into a context event; ok is
// false when the frame fails the receiver's validation.
func eventFromFrame(frame []byte) (Event, bool) {
	decoded, err := particle.Decode(frame)
	if err != nil {
		return Event{}, false
	}
	out := Event{
		Source:     decoded.Node.String(),
		Context:    sensor.ContextByID(int(decoded.ClassID)),
		Quality:    decoded.Quality,
		HasQuality: decoded.HasQuality,
		Sent:       float64(decoded.SentMillis) / 1000,
		Seq:        int(decoded.Seq),
	}
	return out, true
}

// Corrupted returns the number of deliveries dropped by CRC failure —
// shorthand for Stats().Corrupted.
//
//lint:ignore unused TestBitErrorNoisyChannelDropsCorrupted probes the bus with it
func (b *Bus) Corrupted() int { return b.stats.Corrupted }

// Stats returns one consistent snapshot of the bus's delivery accounting:
// aggregate counters, per-subscriber link statistics, and per-publisher
// send-window statistics together.
func (b *Bus) Stats() BusStats {
	out := b.stats
	out.Subscribers = make(map[string]LinkStats, len(b.subscribers))
	for _, sub := range b.subscribers {
		out.Subscribers[sub.name] = *sub.stats
	}
	out.Publishers = make(map[string]PublisherStats, len(b.publishers))
	for name, ps := range b.publishers {
		out.Publishers[name] = ps.stats
	}
	return out
}
