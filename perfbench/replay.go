package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/sparql"
	"ontario/internal/trace"
	"ontario/internal/wrapper"
)

// The replay sends a workload's request stream through the public calls
// one HTTP request crosses inside the server, in process: Engine.Prepare,
// Engine.QueryPrepared, the cursor's batch encoder and Results.Analyze.
// Traced, it records a span around each call, probes sparql.Parse
// separately (Prepare parses only on a cache miss, where the probe splits
// parse from planning), wraps the cluster distributor in a timing
// decorator and folds each query's EXPLAIN ANALYZE actuals into layer
// counts. Untraced, it makes the same calls without recording anything.

// span is one timed call. Spans of one request share req; parent is the
// ID of the enclosing span within the request: 0, the request span,
// whose own parent is -1.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// reqTrace collects one request's spans. The cluster decorator appends
// from executor goroutines, hence the lock.
type reqTrace struct {
	epoch time.Time
	req   int64
	mu    sync.Mutex
	spans []span
}

func (t *reqTrace) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

type reqTraceKey struct{}

// replayStats aggregates one replay. Durations are summed over requests.
type replayStats struct {
	requests int
	// latency is the request time without the parse probe, the part
	// comparable with the HTTP latency, per template.
	latency templateLatencies
	wrong   []string
	failed  int

	parse, prepare, firstBatch, drain, clusterCall time.Duration
	// misses counts requests whose Prepare planned afresh; plan sums
	// their prepare minus parse.
	misses int
	plan   time.Duration

	answers                                    int64
	serviceTime, operatorSelf, topBlockedSend  time.Duration
	requestsToSources, intermediate, hashEntry int64

	spans []span
}

// replaySegments is how many traced and as many untraced segments the
// replay alternates, so drift over the run (cache and dictionary growth,
// GC pacing) falls on both sides alike.
const replaySegments = 4

// runReplay drives the replay with the closed-loop callers for dur,
// alternating traced and untraced segments.
func runReplay(s *sut, gen *generator, o *oracle, dur time.Duration) (traced, untraced *replayStats, err error) {
	traced = &replayStats{latency: make(templateLatencies)}
	untraced = &replayStats{latency: make(templateLatencies)}
	// A repeating stream's plans were all cached by the HTTP run.
	seen := newPlanSet()
	if !gen.adhoc {
		for _, t := range templates {
			prep, err := s.eng.Prepare(t.verbatim, s.opts...)
			if err != nil {
				return nil, nil, err
			}
			seen.firstSeen(prep)
		}
	}
	epoch := time.Now()
	var reqSeq int64
	seg := dur / (2 * replaySegments)
	for i := 0; i < 2*replaySegments; i++ {
		st, on := untraced, false
		if i%2 == 0 {
			st, on = traced, true
		}
		if err := replaySegment(s, gen, o, seg, on, st, seen, epoch, &reqSeq); err != nil {
			return nil, nil, err
		}
	}
	return traced, untraced, nil
}

func replaySegment(s *sut, gen *generator, o *oracle, dur time.Duration, traced bool, st *replayStats,
	seen *planSet, epoch time.Time, reqSeq *int64) error {
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := s.opts
			if traced && s.client != nil {
				td := &timedDistributor{inner: s.client}
				opts = append(append([]ontario.Option(nil), s.opts...), bridge.ClusterOption(td).(ontario.Option))
			}
			for time.Now().Before(deadline) {
				req := gen.next()
				var rt *reqTrace
				if traced {
					mu.Lock()
					*reqSeq++
					rt = &reqTrace{epoch: epoch, req: *reqSeq}
					mu.Unlock()
				}
				one, err := replayOne(s.eng, req, opts, rt, seen.firstSeen)
				mu.Lock()
				if err != nil {
					st.failed++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					st.add(one, o, req.key)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("replay: %w", firstErr)
	}
	return nil
}

// planSet tells a planning miss from a cache hit by plan identity: a
// Prepared the replay has not been handed before was planned afresh. It
// remembers the last planMemory plans only, more than the engine's
// prepared cache (512, dropped whole when full) and the server's LRU (128)
// hold, so a forgotten plan can no longer come back as a hit.
type planSet struct {
	mu   sync.Mutex
	set  map[*ontario.Prepared]bool
	ring []*ontario.Prepared
	next int
}

const planMemory = 1024

func newPlanSet() *planSet {
	return &planSet{set: make(map[*ontario.Prepared]bool), ring: make([]*ontario.Prepared, planMemory)}
}

func (p *planSet) firstSeen(prep *ontario.Prepared) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.set[prep] {
		return false
	}
	delete(p.set, p.ring[p.next])
	p.ring[p.next] = prep
	p.next = (p.next + 1) % planMemory
	p.set[prep] = true
	return true
}

// replayResult is one replayed request.
type replayResult struct {
	latency                                      time.Duration
	parse, prepare, firstBatch, drain, cluster   time.Duration
	miss                                         bool
	answers                                      int
	serviceTime, operatorSelf, topBlockedSend    time.Duration
	requestsToSources, intermediate, hashEntries int64
	spans                                        []span
}

// replayOne replays one request; rt is nil when the replay is untraced.
func replayOne(eng *ontario.Engine, req request, opts []ontario.Option, rt *reqTrace, firstSeen func(*ontario.Prepared) bool) (r replayResult, err error) {
	traced := rt != nil
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	ctx = trace.WithQuery(ctx, trace.NewQueryTrace())
	if traced {
		ctx = context.WithValue(ctx, reqTraceKey{}, rt)
	}
	start := time.Now()
	const root = 0 // the request span's ID
	var probe time.Duration
	if traced {
		rt.add("request", -1, start, start)
		t0 := time.Now()
		if _, err := sparql.Parse(req.text); err != nil {
			return r, err
		}
		t1 := time.Now()
		probe = t1.Sub(t0)
		rt.add("sparql.Parse", root, t0, t1)
		r.parse = probe
	}
	t0 := time.Now()
	prep, err := eng.Prepare(req.text, opts...)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	r.prepare = t1.Sub(t0)
	r.miss = firstSeen(prep)
	res, err := eng.QueryPrepared(ctx, prep, opts...)
	if err != nil {
		return r, err
	}
	defer res.Close()
	t2 := time.Now()
	first := true
	last := t2
	for {
		_, n, ok := bridge.ResultsNextJSON(res)
		now := time.Now()
		if first {
			r.firstBatch = now.Sub(last)
		} else {
			r.drain += now.Sub(last)
		}
		if traced {
			rt.add("bridge.ResultsNextJSON", root, last, now)
		}
		last = now
		first = false
		if !ok {
			break
		}
		r.answers += n
	}
	if err := res.Err(); err != nil {
		return r, err
	}
	// The server analyzes every query and reads its stats for the trailers.
	analysis := res.Analyze()
	_ = res.Stats()
	t3 := time.Now()
	if traced {
		rt.add("ontario.Engine.Prepare", root, t0, t1)
		rt.add("ontario.Engine.QueryPrepared", root, t1, t2)
		rt.add("ontario.Results.Analyze", root, last, t3)
		r.foldAnalysis(analysis)
		rt.mu.Lock()
		rt.spans[root].End = t3.Sub(rt.epoch).Nanoseconds()
		r.spans = rt.spans
		rt.mu.Unlock()
		for _, sp := range r.spans {
			if strings.HasPrefix(sp.Name, "cluster.") {
				r.cluster += time.Duration(sp.End - sp.Start)
			}
		}
	}
	r.latency = t3.Sub(start) - probe
	return r, nil
}

// foldAnalysis sums the query's EXPLAIN ANALYZE actuals into layer
// figures: service leaves are the wrapper layer (their wall time minus
// the time spent waiting on the consumer), every other operator the
// engine layer (wall minus time blocked on input or output).
func (r *replayResult) foldAnalysis(a *ontario.Analysis) {
	if a == nil || a.Plan == nil {
		return
	}
	var walk func(n *ontario.PlanSummary)
	walk = func(n *ontario.PlanSummary) {
		if act := n.Actual; act != nil {
			r.intermediate += act.BindingsOut
			if act.Kind == "service" {
				r.serviceTime += act.Wall - act.BlockedSend
				r.requestsToSources++
			} else {
				r.operatorSelf += selfTime(*act)
				r.requestsToSources += act.BlocksIssued
				r.hashEntries += act.HashEntries
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(a.Plan)
	for _, m := range a.Modifiers {
		r.operatorSelf += selfTime(m)
	}
	// The last modifier, or the plan root without modifiers, feeds the
	// cursor: its blocked sends are time the engine waited on the consumer.
	if len(a.Modifiers) > 0 {
		r.topBlockedSend = a.Modifiers[len(a.Modifiers)-1].BlockedSend
	} else if a.Plan.Actual != nil {
		r.topBlockedSend = a.Plan.Actual.BlockedSend
	}
}

func selfTime(a ontario.Actual) time.Duration {
	if d := a.Wall - a.BlockedRecv - a.BlockedSend; d > 0 {
		return d
	}
	return 0
}

func (st *replayStats) add(r replayResult, o *oracle, key string) {
	if want := o.counts[key]; r.answers != want {
		st.wrong = append(st.wrong, fmt.Sprintf("replay %s: %d answers, oracle %d", key, r.answers, want))
	}
	st.requests++
	st.latency.add(key, ms(r.latency))
	st.parse += r.parse
	st.prepare += r.prepare
	st.firstBatch += r.firstBatch
	st.drain += r.drain
	st.clusterCall += r.cluster
	if r.miss {
		st.misses++
		st.plan += r.prepare - r.parse
	}
	st.answers += int64(r.answers)
	st.serviceTime += r.serviceTime
	st.operatorSelf += r.operatorSelf
	st.topBlockedSend += r.topBlockedSend
	st.requestsToSources += r.requestsToSources
	st.intermediate += r.intermediate
	st.hashEntry += r.hashEntries
	st.spans = append(st.spans, r.spans...)
}

// timedDistributor wraps the cluster client the engine distributes over
// and records a span per call, from the call until the stream it returned
// is exhausted.
type timedDistributor struct {
	inner core.Distributor
}

func (t *timedDistributor) record(ctx context.Context, name string, start time.Time) {
	if rt, ok := ctx.Value(reqTraceKey{}).(*reqTrace); ok {
		rt.add(name, 0, start, time.Now())
	}
}

// watch relays the returned stream and records the span when it ends.
func (t *timedDistributor) watch(ctx context.Context, name string, start time.Time, in *engine.CStream, err error) (*engine.CStream, error) {
	if err != nil {
		t.record(ctx, name, start)
		return nil, err
	}
	out := engine.NewCStream(in.Schema(), 1)
	go func() {
		defer out.Close()
		for b := range in.Batches() {
			if !out.SendBatch(ctx, b) {
				for range in.Batches() {
				}
				break
			}
		}
		t.record(ctx, name, start)
	}()
	return out, nil
}

func (t *timedDistributor) Workers() int { return t.inner.Workers() }

func (t *timedDistributor) Service(ctx context.Context, sourceID string, req *wrapper.Request, schema *engine.Schema, d *dict.Dict, env core.FragmentEnv) (*engine.CStream, error) {
	start := time.Now()
	out, err := t.inner.Service(ctx, sourceID, req, schema, d, env)
	return t.watch(ctx, "cluster.Service", start, out, err)
}

func (t *timedDistributor) ShuffleJoin(ctx context.Context, left, right *engine.CStream, joinVars []string, out *engine.Schema, d *dict.Dict, env core.FragmentEnv) (*engine.CStream, error) {
	start := time.Now()
	s, err := t.inner.ShuffleJoin(ctx, left, right, joinVars, out, d, env)
	return t.watch(ctx, "cluster.ShuffleJoin", start, s, err)
}

func (t *timedDistributor) Colocated(ctx context.Context, d *dict.Dict) bool {
	start := time.Now()
	ok := t.inner.Colocated(ctx, d)
	t.record(ctx, "cluster.Colocated", start)
	return ok
}

func (t *timedDistributor) RunFragment(ctx context.Context, root core.PlanNode, out *engine.Schema, d *dict.Dict, env core.FragmentEnv) (*engine.CStream, error) {
	start := time.Now()
	s, err := t.inner.RunFragment(ctx, root, out, d, env)
	return t.watch(ctx, "cluster.RunFragment", start, s, err)
}

// templateLatencies collects latencies per template, so two runs whose
// template mixes differ slightly still compare like with like.
type templateLatencies map[string][]float64

func (m templateLatencies) add(key string, v float64) {
	id, _, _ := strings.Cut(key, "|")
	m[id] = append(m[id], v)
}

// diff is the mean over the templates both sides saw of the difference
// of their per-template medians; medians keep a few slow outliers from
// swamping a sub-millisecond difference.
func (m templateLatencies) diff(other templateLatencies) float64 {
	var sum float64
	var n int
	for id, a := range m {
		if b := other[id]; len(a) > 0 && len(b) > 0 {
			sum += median(a) - median(b)
			n++
		}
	}
	return ratio(sum, float64(n))
}
