// Command perfbench measures ontario-server's serving path on the LSLOD
// lake under a closed-loop load and checks every answer against a SPARQL
// oracle. Run it from the repository root through the wrapper that builds
// it:
//
//	bash perfbench/run.sh --workload lslod-repeat --seed 1 --seconds 28 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time into
// an HTTP run, a traced in-process replay and an untraced one, and prints
// the per-layer metrics. The last line of standard output is the result
// object; the line before it is the full record (host block, oracle
// fingerprint, sample counts), which --out also appends to a file for the
// compare command. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ontario/internal/buildinfo"
)

// warmup is the closed-loop ramp before the timed region: it fills the
// caches the repeating workloads are meant to hit and lets an ad-hoc
// stream's caches reach their churn state, which takes it one to two
// seconds.
const warmup = 2 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Oracle    map[string]int    `json:"oracle_answers"`
	Samples   map[string]int    `json:"samples"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type host struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Scale        string  `json:"lake_scale"`
	DataSeed     int64   `json:"data_seed"`
	NetsimSeed   int64   `json:"netsim_seed"`
	WorkloadSeed int64   `json:"workload_seed"`
	Network      string  `json:"network"`
	NetScale     float64 `json:"network_scale"`
	Workers      int     `json:"cluster_workers"`
	Clients      int     `json:"clients"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: lslod-repeat | lslod-adhoc | federated-gamma1 | cluster-2w-gamma1 | cluster-2w")
		seed    = flag.Int64("seed", 1, "workload seed (drives the request stream only)")
		seconds = flag.Float64("seconds", 28, "measured seconds")
		traceOn = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		out     = flag.String("out", "", "append the full record as one JSON line to this file")
		spans   = flag.String("spans", "", "traced run: write the recorded spans as JSON lines to this file")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *out, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, traced bool, outPath, spansPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	_, commit := buildinfo.Info()
	rec := record{
		Workload: w.name, Seed: seed, Trace: traced,
		Host: host{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
			Scale: w.scaleName(), DataSeed: dataSeed, NetsimSeed: netsimSeed, WorkloadSeed: seed,
			Network: w.network.Name, NetScale: w.netScale, Workers: w.workers, Clients: clients,
		},
		Samples: make(map[string]int),
		Metrics: make(map[string]metric),
	}

	s, setupTimes, err := setUp(w)
	if err != nil {
		return err
	}
	defer s.close()

	t0 := time.Now()
	o, err := buildOracle(w.scale(), answerKeys(w.adhoc))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-up median %.4fs over %d, oracle %.2fs for %d queries\n",
		w.name, median(setupTimes), len(setupTimes), time.Since(t0).Seconds(), len(o.counts))
	rec.Oracle = o.fingerprint()

	gen := newGenerator(w.adhoc, seed)
	warm := runLoad(s.url, gen, o, warmup)
	errs := warm.wrong
	if warm.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up: %d of %d requests failed\n", warm.failed, warm.attempted)
	}

	httpDur := dur
	if traced {
		httpDur = dur / 3
	}
	h, err := measureHTTP(s, gen, o, httpDur)
	if err != nil {
		return err
	}
	errs = append(errs, h.wrong...)
	for key, body := range h.firsts {
		if body != nil {
			if err := o.checkBody(key, body); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	rec.Attempted, rec.Failed = h.attempted, h.failed
	rec.Samples["setups"] = len(setupTimes)
	rec.Samples["latency"] = len(h.lat)
	rec.Samples["latency_beyond_p95"] = len(h.lat) - int(math.Ceil(0.95*float64(len(h.lat))))
	rec.Samples["ttfa"] = len(h.ttfa)
	if n := rec.Samples["latency_beyond_p95"]; n < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p95; run longer\n", n)
	}

	put := func(name, unit string, v float64) { rec.Metrics[name] = metric{Value: v, Unit: unit} }
	if !traced {
		endToEnd(put, h, setupTimes)
	} else {
		httpLayers(put, h)
		tr, un, err := runReplay(s, gen, o, dur-httpDur)
		if err != nil {
			return err
		}
		errs = append(errs, tr.wrong...)
		errs = append(errs, un.wrong...)
		rec.Attempted += tr.requests + tr.failed + un.requests + un.failed
		rec.Failed += tr.failed + un.failed
		rec.Samples["replay_traced"] = tr.requests
		rec.Samples["replay_untraced"] = un.requests
		replayLayers(put, h, tr, un)
		if spansPath != "" {
			if err := writeSpans(spansPath, tr.spans); err != nil {
				return err
			}
		}
	}
	rec.Errors = errs
	rec.Correct = len(errs) == 0
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", e)
	}
	if err := emit(rec, outPath); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%d check(s) failed; the result above reads \"correct\": false", len(errs))
	}
	return nil
}

// setUp starts the system under test at least minSetups times and, for a
// system that sets up in milliseconds, until minSetupSeconds have gone
// into set-up, so setup_s is a median over enough repetitions to be
// steady. Each set-up is lake generation, partitioning, worker and server
// start until /healthz answers; the last system serves the run.
func setUp(w workload) (*sut, []float64, error) {
	const (
		minSetups       = 7
		minSetupSeconds = 1.0
		maxSetups       = 101
	)
	var s *sut
	var times []float64
	var total float64
	for i := 0; i < maxSetups && (i < minSetups || total < minSetupSeconds); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = startSUT(w); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
	}
	return s, times, nil
}

// httpRun is the timed closed-loop HTTP run with the program's counters
// read before and after it.
type httpRun struct {
	*loadStats
	dur                         time.Duration
	lat, ttfa                   []float64
	byTemplate                  templateLatencies
	done, answers, messages     int
	bytes                       int
	cpu                         time.Duration
	peakRSS                     int64
	rt0, rt1                    runtimeCounters
	before, after               promSnapshot
	clusterBefore, clusterAfter clusterTotals
	repeatShare                 float64
}

func measureHTTP(s *sut, gen *generator, o *oracle, dur time.Duration) (*httpRun, error) {
	h := &httpRun{dur: dur, byTemplate: make(templateLatencies)}
	debug.FreeOSMemory()
	var err error
	if h.before, err = scrapeMetrics(s.url); err != nil {
		return nil, err
	}
	h.clusterBefore = s.clusterTotals()
	gen.resetRepeats()
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	h.rt0 = readRuntime()
	h.loadStats = runLoad(s.url, gen, o, dur)
	h.rt1 = readRuntime()
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	h.cpu = cpu1 - cpu0
	if h.peakRSS, err = peakRSS(); err != nil {
		return nil, err
	}
	h.repeatShare = gen.repeatShare()
	if h.after, err = scrapeMetrics(s.url); err != nil {
		return nil, err
	}
	h.clusterAfter = s.clusterTotals()
	if h.attempted == 0 || len(h.samples) == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	for _, sm := range h.samples {
		h.lat = append(h.lat, ms(sm.latency))
		h.byTemplate.add(sm.key, ms(sm.latency))
		if sm.hasTTFA {
			h.ttfa = append(h.ttfa, ms(sm.ttfa))
		}
		if sm.done {
			h.done++
		}
		h.answers += sm.answers
		h.messages += sm.messages
		h.bytes += sm.bytes
	}
	return h, nil
}

type putFunc func(name, unit string, v float64)

func endToEnd(put putFunc, h *httpRun, setupTimes []float64) {
	attempted := float64(h.attempted)
	put("qps", "queries/s", float64(h.done)/h.dur.Seconds())
	put("latency_p50_ms", "ms", quantile(h.lat, 0.50))
	put("latency_p95_ms", "ms", quantile(h.lat, 0.95))
	put("ttfa_p50_ms", "ms", quantile(h.ttfa, 0.50))
	put("success_ratio", "ratio", 1-float64(h.failed)/attempted)
	put("setup_s", "s", median(setupTimes))
	put("peak_rss_mb", "MiB", float64(h.peakRSS)/(1<<20))
}

// httpLayers puts the per-layer counts read from the HTTP run: response
// trailers and sizes, /metrics, the cluster client's link counters and
// the Go runtime's counters.
func httpLayers(put putFunc, h *httpRun) {
	attempted := float64(h.attempted)
	delta := func(name string) float64 { return h.after.sum(name) - h.before.sum(name) }
	hits, misses := delta("ontario_plan_cache_hits_total"), delta("ontario_plan_cache_misses_total")
	put("workload.repeat_share", "ratio", h.repeatShare)
	put("process.cpu_ms_per_query", "ms", ms(h.cpu)/attempted)
	put("server.plan_cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("server.bytes_per_answer", "bytes", ratio(float64(h.bytes), float64(h.answers)))
	put("core.messages_per_query", "count", float64(h.messages)/float64(len(h.samples)))
	put("netsim.simulated_delay_ms_per_query", "ms", delta("ontario_source_delay_ms_sum")/attempted)
	put("wrapper.source_inflight_peak", "count", h.after.max("ontario_source_inflight_peak"))
	put("runtime.alloc_bytes_per_query", "bytes", float64(h.rt1.allocBytes-h.rt0.allocBytes)/attempted)
	put("runtime.mallocs_per_query", "count", float64(h.rt1.mallocs-h.rt0.mallocs)/attempted)
	put("runtime.gc_cpu_fraction", "ratio", ratio(h.rt1.gcCPU-h.rt0.gcCPU, h.rt1.totalCPU-h.rt0.totalCPU))
	put("cluster.wire_bytes_per_answer", "bytes", ratio(float64(h.clusterAfter.bytes-h.clusterBefore.bytes), float64(h.answers)))
	put("cluster.batches_per_query", "count", float64(h.clusterAfter.batches-h.clusterBefore.batches)/attempted)
	put("cluster.dict_delta_bytes_per_query", "bytes", float64(h.clusterAfter.deltaBytes-h.clusterBefore.deltaBytes)/attempted)
	put("cluster.link_reconnects", "count", float64(h.clusterAfter.reconnects))
}

// replayLayers puts the per-layer figures of the traced replay, and the
// differences of the HTTP run and the traced replay from the untraced
// one.
func replayLayers(put putFunc, h *httpRun, tr, un *replayStats) {
	n := float64(tr.requests)
	put("server.http_ms", "ms", h.byTemplate.diff(un.latency))
	put("trace.overhead_ms_per_query", "ms", tr.latency.diff(un.latency))
	put("sparql.parse_us", "us", ms(tr.parse)*1000/n)
	put("ontario.prepare_ms", "ms", ms(tr.prepare)/n)
	put("core.plan_ms", "ms", ratio(ms(tr.plan), float64(tr.misses)))
	put("ontario.first_batch_ms", "ms", ms(tr.firstBatch)/n)
	put("ontario.drain_ms", "ms", ms(tr.drain)/n)
	put("wrapper.service_ms_per_query", "ms", ms(tr.serviceTime)/n)
	put("wrapper.requests_per_query", "count", float64(tr.requestsToSources)/n)
	put("engine.operator_self_ms_per_query", "ms", ms(tr.operatorSelf)/n)
	put("engine.blocked_send_ms_per_query", "ms", ms(tr.topBlockedSend)/n)
	put("engine.intermediate_per_answer", "count", ratio(float64(tr.intermediate), float64(tr.answers)))
	put("engine.hash_entries_per_query", "count", float64(tr.hashEntry)/n)
	put("cluster.call_ms_per_query", "ms", ms(tr.clusterCall)/n)
}

// emit prints the full record, appends it to outPath when set, and prints
// the result object as the last line.
func emit(rec record, outPath string) error {
	line, err := json.Marshal(map[string]record{"perfbench_record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(result))
	return nil
}

// writeSpans writes one JSON object per span, with its self time: the
// span's duration minus the part of it its children cover. Children may
// overlap (the cluster calls of one query run concurrently), so the
// covered part is the union of their intervals.
func writeSpans(path string, spans []span) error {
	type key struct {
		req int64
		id  int
	}
	children := make(map[key][][2]int64)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			k := key{sp.Req, sp.Parent}
			children[k] = append(children[k], [2]int64{sp.Start, sp.End})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		self := sp.End - sp.Start - covered(children[key{sp.Req, sp.ID}], sp.Start, sp.End)
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{sp, self}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// covered returns the length of the union of the intervals within
// [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
