package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// spanEvery samples client spans: one frame in spanEvery carries them.
const spanEvery = 32

// maxSpans caps one span log, so a long traced run stays small in memory.
const maxSpans = 1 << 18

// span is one traced interval, in nanoseconds since the run's base
// instant. Spans of one request share req; parent is the id (index in its
// log) of the span that caused this one, -1 for a root. Spans hold no
// pointers, so a large log costs the garbage collector nothing to scan
// and does not slow the calls being traced.
type span struct {
	name   uint16
	parent int32
	req    int64
	start  int64
	end    int64
}

// spanNames interns span names; register every name before tracing starts
// (lookups are not synchronized).
var (
	spanNames   []string
	spanNameIDs = map[string]uint16{}
)

// nameID interns a span name.
func nameID(name string) uint16 {
	id, ok := spanNameIDs[name]
	if !ok {
		id = uint16(len(spanNames))
		spanNames = append(spanNames, name)
		spanNameIDs[name] = id
	}
	return id
}

// Client span names.
var (
	nameRequest = nameID("client.request")
	nameSend    = nameID("client.send")
	nameRecv    = nameID("client.recv")
)

// spanLog is an append-only, single-owner span buffer; logs are merged
// and written out when the run ends.
type spanLog struct {
	spans   []span
	dropped int64
}

// add records a span and returns its id (-1 when the log is full).
func (l *spanLog) add(name uint16, parent int, req, start, end int64) int {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: int32(parent), req: req, start: start, end: end})
	return len(l.spans) - 1
}

// request records a client round trip: the request span and its send and
// receive children.
func (l *spanLog) request(req, sendStart, sendEnd, recvStart, recvEnd int64) {
	if len(l.spans)+3 > maxSpans {
		l.dropped += 3
		return
	}
	root := l.add(nameRequest, -1, req, sendStart, recvEnd)
	l.add(nameSend, root, req, sendStart, sendEnd)
	l.add(nameRecv, root, req, recvStart, recvEnd)
}

// meanNS is the mean duration of the spans named name across logs.
func meanNS(logs []*spanLog, name uint16) float64 {
	var sum, n int64
	for _, l := range logs {
		for _, s := range l.spans {
			if s.name == name {
				sum += s.end - s.start
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// spanRecord is the written form of a span.
type spanRecord struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	ReqID  int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans merges the logs — renumbering ids so they stay unique — and
// writes one JSON object per span, in start order, to path.
func writeSpans(path string, logs []*spanLog) (int, error) {
	var all []spanRecord
	for _, l := range logs {
		off := len(all)
		for i, s := range l.spans {
			rec := spanRecord{Name: spanNames[s.name], ID: off + i, Parent: -1, ReqID: s.req, Start: s.start, End: s.end}
			if s.parent >= 0 {
				rec.Parent = off + int(s.parent)
			}
			all = append(all, rec)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			_ = f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, err
	}
	return len(all), f.Close()
}
