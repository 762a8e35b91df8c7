package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/wire"
)

// The tracer measures each layer from outside, at the program's public
// seams: fl.Orchestrator/RoundHandle wrappers (the controller-call
// boundary), a RoundTripper on every SDK client, handler middleware on
// every server, and fl.Config.WrapDevice. Each seam records a span into
// its layer's interval set and adds to per-layer counters. Tracing is
// switched on and off between rounds, so one deployment serves both the
// traced rounds and the untraced rounds the overhead is measured on;
// with tracing off a seam only forwards.

// layer identifies one span boundary, outermost first. Spans of a layer
// nest inside the spans of the layers before it on the same call path.
type layer int

const (
	layerCtrl       layer = iota // trainer → controller calls
	layerClient                  // trainer SDK HTTP attempts
	layerAPI                     // serving handler (api.Server or coordinator front)
	layerMemberCall              // coordinator → member HTTP attempts
	layerMember                  // member api.Server handler
	layerDevice                  // device data operations
	numLayers
)

// route is a v2 round endpoint, classified from method, path and
// content type.
type route int

const (
	routeBegin route = iota
	routeStage
	routeEntries
	routeGradients
	routeUpload
	routeUnmask
	routeFinish
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{"begin", "stage", "entries", "gradients", "upload", "unmask", "finish", "other"}

func routeOf(r *http.Request) route {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v2/rounds":
		return routeBegin
	case r.Method != http.MethodPost || !strings.HasPrefix(p, "/v2/rounds/"):
		return routeOther
	case strings.HasSuffix(p, "/stage"):
		return routeStage
	case strings.HasSuffix(p, "/entries"):
		return routeEntries
	case strings.HasSuffix(p, "/gradients"):
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-fedora-wire") {
			return routeUpload
		}
		return routeGradients
	case strings.HasSuffix(p, "/unmask"):
		return routeUnmask
	case strings.HasSuffix(p, "/finish"):
		return routeFinish
	}
	return routeOther
}

// spanSet is one layer's busy intervals. Overlapping spans (concurrent
// calls) merge as they are recorded: an interval opens when the first
// span starts and closes when the last one ends, so ivs stays sorted and
// disjoint without a sort.
type spanSet struct {
	mu     sync.Mutex
	base   time.Time
	active int
	open   int64
	ivs    []int64 // [start, end) pairs in ns since base
}

func (s *spanSet) begin() int64 {
	s.mu.Lock()
	now := int64(time.Since(s.base))
	if s.active == 0 {
		s.open = now
	}
	s.active++
	s.mu.Unlock()
	return now
}

func (s *spanSet) end() int64 {
	s.mu.Lock()
	now := int64(time.Since(s.base))
	s.active--
	if s.active == 0 {
		s.ivs = append(s.ivs, s.open, now)
	}
	s.mu.Unlock()
	return now
}

// take returns the intervals recorded so far and resets the set; a
// still-open interval is split at the current time.
func (s *spanSet) take() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ivs
	s.ivs = nil
	if s.active > 0 {
		now := int64(time.Since(s.base))
		out = append(out, s.open, now)
		s.open = now
	}
	return out
}

// routeStats are per-route HTTP counters of one side of a connection.
type routeStats struct {
	calls [numRoutes]atomic.Int64
	ns    [numRoutes]atomic.Int64
	bytes [numRoutes]atomic.Int64
}

// handlerNs is per-route handler time of one server side.
type handlerNs [numRoutes]atomic.Int64

// Controller-call kinds timed at the orchestrator/round boundary.
const (
	opBegin = iota
	opStage
	opServe
	opSubmit
	opFinish
	opUpload
	opUnmask
	numOps
)

// devStats are per-device-kind counters.
type devStats struct {
	ops, readBytes, writeBytes, ns atomic.Int64
}

// tracer holds every seam's counters and span sets.
type tracer struct {
	on    atomic.Bool
	spans [numLayers]spanSet

	opNs                                           [numOps]atomic.Int64
	serveCalls, serveRows, submitRows, uploadBytes atomic.Int64

	ssd, dram devStats

	client, member routeStats // SDK attempts: trainer and coordinator side
	api, memberSrv handlerNs  // handler time: front server and members
	probes         atomic.Int64
	fan            fanout
}

func newTracer() *tracer {
	tr := &tracer{}
	base := time.Now()
	for i := range tr.spans {
		tr.spans[i].base = base
	}
	return tr
}

// call opens a span on layer l when tracing is on; the returned closure
// ends it and reports its duration (0 when tracing was off).
func (tr *tracer) call(l layer) func() int64 {
	if !tr.on.Load() {
		return func() int64 { return 0 }
	}
	s := &tr.spans[l]
	t0 := s.begin()
	return func() int64 { return s.end() - t0 }
}

// add bumps a counter while tracing is on.
func (tr *tracer) add(c *atomic.Int64, n int) {
	if tr.on.Load() {
		c.Add(int64(n))
	}
}

func (tr *tracer) timeOp(op int) func() {
	done := tr.call(layerCtrl)
	return func() { tr.opNs[op].Add(done()) }
}

// ---- controller-call boundary ---------------------------------------

// orchestrator wraps o, keeping its optional two-phase leg visible.
func (tr *tracer) orchestrator(o fl.Orchestrator) fl.Orchestrator {
	to := &tracedOrch{Orchestrator: o, tr: tr}
	if _, ok := o.(fl.RoundStager); ok {
		return tracedStager{to}
	}
	return to
}

type tracedOrch struct {
	fl.Orchestrator
	tr *tracer
}

func (o *tracedOrch) BeginRound(requests [][]uint64) (fl.RoundHandle, error) {
	done := o.tr.timeOp(opBegin)
	h, err := o.Orchestrator.BeginRound(requests)
	done()
	if err != nil {
		return nil, err
	}
	return o.tr.round(h), nil
}

type tracedStager struct{ *tracedOrch }

func (o tracedStager) StageRound(requests [][]uint64) error {
	defer o.tr.timeOp(opStage)()
	return o.Orchestrator.(fl.RoundStager).StageRound(requests)
}

// aggregateSubmitter is the local upload-plane leg fl discovers on
// *fedora.Round.
type aggregateSubmitter interface {
	SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error)
}

// round wraps h so that exactly the optional legs h has stay visible:
// the trainer picks its upload path by type assertion.
func (tr *tracer) round(h fl.RoundHandle) fl.RoundHandle {
	base := &tracedRound{RoundHandle: h, tr: tr}
	if _, ok := h.(fl.WireRound); ok {
		return tracedWireRound{base}
	}
	if _, ok := h.(aggregateSubmitter); ok {
		return tracedAggRound{base}
	}
	return base
}

type tracedRound struct {
	fl.RoundHandle
	tr *tracer
}

func (r *tracedRound) ServeEntry(row uint64) ([]float32, bool, error) {
	defer r.tr.timeOp(opServe)()
	r.tr.add(&r.tr.serveCalls, 1)
	r.tr.add(&r.tr.serveRows, 1)
	return r.RoundHandle.ServeEntry(row)
}

func (r *tracedRound) ServeEntries(rows []uint64) ([]fedora.EntryResult, error) {
	defer r.tr.timeOp(opServe)()
	r.tr.add(&r.tr.serveCalls, 1)
	r.tr.add(&r.tr.serveRows, len(rows))
	return r.RoundHandle.ServeEntries(rows)
}

func (r *tracedRound) SubmitGradient(row uint64, grad []float32, samples int) (bool, error) {
	defer r.tr.timeOp(opSubmit)()
	r.tr.add(&r.tr.submitRows, 1)
	return r.RoundHandle.SubmitGradient(row, grad, samples)
}

func (r *tracedRound) SubmitGradients(grads []fedora.RowGradient) ([]bool, error) {
	defer r.tr.timeOp(opSubmit)()
	r.tr.add(&r.tr.submitRows, len(grads))
	return r.RoundHandle.SubmitGradients(grads)
}

func (r *tracedRound) Finish() (fedora.RoundStats, error) {
	defer r.tr.timeOp(opFinish)()
	return r.RoundHandle.Finish()
}

type tracedAggRound struct{ *tracedRound }

func (r tracedAggRound) SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error) {
	defer r.tr.timeOp(opSubmit)()
	r.tr.add(&r.tr.submitRows, len(aggs))
	return r.RoundHandle.(aggregateSubmitter).SubmitAggregates(aggs)
}

type tracedWireRound struct{ *tracedRound }

func (r tracedWireRound) SubmitUpload(batchID string, payload []byte) error {
	defer r.tr.timeOp(opUpload)()
	r.tr.add(&r.tr.uploadBytes, len(payload))
	return r.RoundHandle.(fl.WireRound).SubmitUpload(batchID, payload)
}

func (r tracedWireRound) UnmaskAndApply(reveals []wire.Reveal) (fl.WireUnmaskSummary, error) {
	defer r.tr.timeOp(opUnmask)()
	return r.RoundHandle.(fl.WireRound).UnmaskAndApply(reveals)
}

// ---- device boundary --------------------------------------------------

// wrapDevice is the fl.Config.WrapDevice hook. Data operations (ReadAt,
// WriteAt, PeekAt, PokeAt) are timed and counted; Charge/ChargeN only
// account modelled traffic, so they are counted but not timed.
func (tr *tracer) wrapDevice(name string, d device.Device) device.Device {
	st := &tr.dram
	if strings.HasSuffix(name, "ssd") {
		st = &tr.ssd
	}
	return &tracedDevice{Device: d, tr: tr, st: st}
}

type tracedDevice struct {
	device.Device
	tr *tracer
	st *devStats
}

func (d *tracedDevice) data(n int, write bool, op func() error) error {
	if !d.tr.on.Load() {
		return op()
	}
	done := d.tr.call(layerDevice)
	err := op()
	d.st.ns.Add(done())
	d.st.ops.Add(1)
	if write {
		d.st.writeBytes.Add(int64(n))
	} else {
		d.st.readBytes.Add(int64(n))
	}
	return err
}

func (d *tracedDevice) ReadAt(addr uint64, p []byte) (dur time.Duration, err error) {
	err = d.data(len(p), false, func() error { dur, err = d.Device.ReadAt(addr, p); return err })
	return dur, err
}

func (d *tracedDevice) WriteAt(addr uint64, p []byte) (dur time.Duration, err error) {
	err = d.data(len(p), true, func() error { dur, err = d.Device.WriteAt(addr, p); return err })
	return dur, err
}

func (d *tracedDevice) PeekAt(addr uint64, p []byte) error {
	return d.data(len(p), false, func() error { return d.Device.PeekAt(addr, p) })
}

func (d *tracedDevice) PokeAt(addr uint64, p []byte) error {
	return d.data(len(p), true, func() error { return d.Device.PokeAt(addr, p) })
}

func (d *tracedDevice) Charge(op device.Op, addr uint64, n int) time.Duration {
	d.tr.add(&d.st.ops, 1)
	return d.Device.Charge(op, addr, n)
}

func (d *tracedDevice) ChargeN(op device.Op, n, count int) time.Duration {
	d.tr.add(&d.st.ops, 1)
	return d.Device.ChargeN(op, n, count)
}

// ---- HTTP boundaries ---------------------------------------------------

// transport wraps an SDK RoundTripper: each attempt is a span on layer
// l, ending when the caller closes the response body.
func (tr *tracer) transport(l layer, st *routeStats, next http.RoundTripper) http.RoundTripper {
	return &tracedTransport{next: next, tr: tr, l: l, st: st}
}

type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
	l    layer
	st   *routeStats
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.next.RoundTrip(req)
	}
	rt := routeOf(req)
	if req.URL.Path == "/healthz" {
		t.tr.probes.Add(1) // a probe is route "other", so only counted here
	}
	var fg *fanGroup
	if t.l == layerMemberCall {
		fg = t.tr.fan.join(rt, req.URL.Host)
	}
	done := t.tr.call(t.l)
	finish := func(respBytes int64) {
		ns := done()
		t.st.calls[rt].Add(1)
		t.st.ns[rt].Add(ns)
		t.st.bytes[rt].Add(max(req.ContentLength, 0) + respBytes)
		if fg != nil {
			t.tr.fan.leave(fg, ns)
		}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		finish(0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: finish}
	return resp, nil
}

// countingBody counts response bytes and ends the attempt's span on
// Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// handler is server-side middleware: each request is a span on layer l.
func (tr *tracer) handler(l layer, ns *handlerNs, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		rt := routeOf(r)
		done := tr.call(l)
		next.ServeHTTP(w, r)
		ns[rt].Add(done())
	})
}

// fanout groups concurrent coordinator → member calls of one route into
// fan-outs: a call joins the open group of its route unless that group
// already has a call to the same member. When a group with at least two
// members drains, its straggler time (slowest call − fastest call) is
// recorded. The coordinator passes no request identity to its members,
// so the grouping is by concurrency, not by originating request.
type fanout struct {
	mu        sync.Mutex
	open      [numRoutes]*fanGroup
	straggler atomic.Int64
	count     atomic.Int64
}

type fanGroup struct {
	rt       route
	inflight int
	hosts    map[string]bool
	min, max int64
}

func (f *fanout) join(rt route, host string) *fanGroup {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := f.open[rt]
	if g == nil || g.hosts[host] {
		g = &fanGroup{rt: rt, hosts: map[string]bool{}, min: -1}
		f.open[rt] = g
	}
	g.inflight++
	g.hosts[host] = true
	return g
}

func (f *fanout) leave(g *fanGroup, ns int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g.inflight--
	if g.min < 0 || ns < g.min {
		g.min = ns
	}
	g.max = max(g.max, ns)
	if g.inflight > 0 {
		return
	}
	if f.open[g.rt] == g {
		f.open[g.rt] = nil
	}
	if len(g.hosts) >= 2 {
		f.straggler.Add(g.max - g.min)
		f.count.Add(1)
	}
}
