// Package serve puts the Context Quality Measure on the wire: a sharded
// scoring service that sits between many unreliable context producers and
// the appliances consuming their classifications — a middleware access
// point for an AwareOffice-style deployment.
//
// The package is organized around four pieces:
//
//   - Frame codec (frame.go): a compact binary request/response framing
//     that reuses the 22-byte particle frame as its header and appends a
//     CRC-guarded cue section, so a scoring request is self-delimiting on
//     a byte stream and survives the same hostile-input discipline as the
//     RF codec.
//   - Consistent-hash ring (ring.go): source IDs map onto shards
//     through a fixed ring of virtual nodes, so the shard map is stable
//     under shard-count changes and ready for multi-node sharding.
//   - Server (server.go): per-shard bounded queues with admission control
//     and explicit backpressure, and no goroutine of its own: the
//     goroutine whose admission finds a shard idle becomes its combiner
//     (flat combining) and folds every queued request, up to BatchSize at
//     a time, into one core.Measure.ScoreBatchInto per pass until the
//     queue is empty, writing into result buffers the shard owns. Hot model reload goes through ckpt.Handle (one model load
//     per batch — a swap never mixes models inside a batch), and a drain
//     protocol guarantees every admitted request is scored or explicitly
//     rejected, never silently dropped.
//   - Fronts (http.go, tcp.go): an HTTP/JSON API and a binary TCP
//     listener over the frame codec, both returning typed protocol errors
//     for malformed input and explicit 429/reject frames under overload.
//     Both submit through one task path: a task carries its own answer
//     and comes back on a done channel its caller owns, sized so a
//     combiner never blocks on a client. A binary connection is one
//     goroutine: it admits up to connWindow frames, and before any read
//     that could block it receives and flushes every answer it owes,
//     including those another combiner produced; /score/batch starts
//     every request and collects the answers on one channel. Submit and
//     /score combine at once; the binary reader and /score/batch admit
//     first and combine the shards they were elected for only before
//     they could block, so the frames of one read fold into one batch.
//
// Determinism contract: scoring through the sharded path is bit-identical
// to a direct unsharded ScoreBatch over the same frames at every shard
// count — each score is an independent FIS evaluation, and the shard map
// only changes which batch performs it. Scores never depend on the wall
// clock, but serving decisions do: admission stamps, request deadlines,
// CoDel shedding and the binary front's idle timeouts read Config.Clock
// or time.Now. Client-side load tooling (cmd/cqmload) owns the latency
// measurements.
package serve
