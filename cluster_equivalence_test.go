package ontario_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/cluster"
	"ontario/internal/lslod"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/trace"
	"ontario/internal/wrapper"
)

// Distributed execution must be answer-equivalent to single-node
// execution: the coordinator plans exactly as a single node does, but
// scans fan out over hash-partitioned workers and symmetric-hash joins
// run as distributed shuffles over the columnar wire protocol, so the
// multiset of solutions — unbound OPTIONAL columns, typed literals and
// all — must survive partitioning, the dictionary-delta remap, and
// reassembly.

// testCluster is a booted worker pool plus the coordinator-side client:
// tests that only need the query option use .opt; the restart and
// pushdown tests also reach the client (Probe counters) and individual
// workers (Shutdown / restart on the same port).
type testCluster struct {
	t       *testing.T
	n       int
	opt     ontario.Option
	client  *cluster.Client
	addrs   []string
	workers []*cluster.Worker
}

// bootCluster partitions the small LSLOD lake over n in-process workers
// on loopback listeners and returns the pool handle whose opt
// distributes executions over them.
func bootCluster(t *testing.T, n int, cfg cluster.ClientConfig) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, n: n, addrs: make([]string, n), workers: make([]*cluster.Worker, n)}
	for i := 0; i < n; i++ {
		tc.startWorker(i, "127.0.0.1:0")
	}
	client, err := cluster.NewClient(tc.addrs, cfg)
	if err != nil {
		t.Fatalf("cluster client: %v", err)
	}
	t.Cleanup(client.Close)
	opt, ok := bridge.ClusterOption(client).(ontario.Option)
	if !ok {
		t.Fatal("bridge.ClusterOption is not wired")
	}
	tc.client = client
	tc.opt = opt
	return tc
}

// startWorker builds partition i's lake and serves a worker for it on
// addr ("127.0.0.1:0" picks a port; a concrete addr rebinds it, which is
// how restartWorker keeps the pool's addresses stable).
func (tc *testCluster) startWorker(i int, addr string) {
	tc.t.Helper()
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		tc.t.Fatalf("building worker %d lake: %v", i, err)
	}
	if err := cluster.PartitionLake(lk.Lake, i, tc.n); err != nil {
		tc.t.Fatalf("partitioning worker %d: %v", i, err)
	}
	w, err := cluster.NewWorker(lk.Lake, cluster.WorkerConfig{Partition: i, Of: tc.n})
	if err != nil {
		tc.t.Fatalf("worker %d: %v", i, err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		tc.t.Fatalf("worker %d listener on %s: %v", i, addr, err)
	}
	go w.Serve(lis)
	tc.t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Shutdown(ctx)
	})
	tc.addrs[i] = lis.Addr().String()
	tc.workers[i] = w
}

// stopWorker shuts worker i down; its port stays recorded so
// restartWorker can bring a fresh process-equivalent worker back up on
// the same address.
func (tc *testCluster) stopWorker(i int) {
	tc.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.workers[i].Shutdown(ctx); err != nil {
		tc.t.Fatalf("worker %d shutdown: %v", i, err)
	}
}

func (tc *testCluster) restartWorker(i int) {
	tc.t.Helper()
	tc.startWorker(i, tc.addrs[i])
}

// TestClusterEquivalenceLSLOD runs the five LSLOD benchmark queries on a
// two-worker cluster under both plan modes and requires the distributed
// multiset to match the single-node columnar run on the same engine —
// including a repeat per cell, so cached plans shared between clustered
// and local executions stay correct.
func TestClusterEquivalenceLSLOD(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	clusterOpt := bootCluster(t, 2, cluster.ClientConfig{}).opt

	modes := []struct {
		name string
		opt  ontario.Option
	}{
		{"aware", ontario.WithAwarePlan()},
		{"unaware", ontario.WithUnawarePlan()},
	}
	for _, q := range lslod.Queries() {
		for _, mode := range modes {
			base := []ontario.Option{
				mode.opt,
				ontario.WithNetwork(ontario.NoDelay),
				ontario.WithNetworkScale(0),
				ontario.WithSeed(1),
			}
			label := fmt.Sprintf("%s/%s", q.ID, mode.name)
			_, want := runCanon(t, eng, q.Text, base...)
			if len(want) == 0 {
				t.Fatalf("%s: single-node run returned no solutions", label)
			}
			_, got := runCanon(t, eng, q.Text, append([]ontario.Option{clusterOpt}, base...)...)
			diffMultisets(t, label, want, got)
			_, again := runCanon(t, eng, q.Text, append([]ontario.Option{clusterOpt}, base...)...)
			diffMultisets(t, label+"/repeat", want, again)
		}
	}
}

// TestClusterEquivalenceOptional shuffles OPTIONAL-unbound rows across
// the wire: the presence bitmap for the absent ?drug column must survive
// the worker hop in both directions.
func TestClusterEquivalenceOptional(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	clusterOpt := bootCluster(t, 2, cluster.ClientConfig{}).opt

	query := fmt.Sprintf(`
SELECT ?disease ?name ?drug WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?name .
  OPTIONAL { ?disease <%s> ?drug }
}`, rdfTypeIRI, lslod.ClassDisease, lslod.PredDiseaseName, lslod.PredPossibleDrug)

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	_, want := runCanon(t, eng, query, base...)
	bound, unbound := 0, 0
	for _, row := range want {
		if strings.Contains(row, "drug=") {
			bound++
		} else {
			unbound++
		}
	}
	if bound == 0 || unbound == 0 {
		t.Fatalf("OPTIONAL coverage needs both bound and unbound ?drug rows, got bound=%d unbound=%d", bound, unbound)
	}
	_, got := runCanon(t, eng, query, append([]ontario.Option{clusterOpt}, base...)...)
	diffMultisets(t, "cluster/optional", want, got)
}

// TestClusterSingleWorkerDegenerate checks the N=1 edge: one worker
// owning the whole lake behind the wire protocol is still
// answer-identical (the scaling experiment's baseline cell).
func TestClusterSingleWorkerDegenerate(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	clusterOpt := bootCluster(t, 1, cluster.ClientConfig{}).opt

	q := lslod.Queries()[0]
	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	_, want := runCanon(t, eng, q.Text, base...)
	_, got := runCanon(t, eng, q.Text, append([]ontario.Option{clusterOpt}, base...)...)
	diffMultisets(t, "cluster/one-worker", want, got)
}

// TestClusterWorkerRestart kills a worker mid-pool and brings a fresh one
// up on the same port: queries against the dead worker must fail cleanly
// (not hang), and after the restart the persistent link must re-dial,
// reset its dictionary-remap state against the worker's new epoch, and
// answer the full LSLOD suite exactly.
func TestClusterWorkerRestart(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	// No retries and no breaker: a dead worker should surface immediately
	// as an error, and the restarted worker should be usable on the very
	// next query rather than after a cooldown.
	tc := bootCluster(t, 2, cluster.ClientConfig{
		Resilience: wrapper.ResilienceConfig{MaxRetries: -1, BreakerThreshold: -1},
	})

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	q := lslod.Queries()[0]
	_, want := runCanon(t, eng, q.Text, base...)
	_, got := runCanon(t, eng, q.Text, append([]ontario.Option{tc.opt}, base...)...)
	diffMultisets(t, "restart/before", want, got)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	before := tc.client.Probe(ctx)
	if !before[0].Up || before[0].Info == nil {
		t.Fatalf("worker 0 not up before restart: %+v", before[0])
	}
	epochBefore := before[0].Info.Epoch

	tc.stopWorker(0)
	res, err := eng.Query(context.Background(), q.Text, append([]ontario.Option{tc.opt}, base...)...)
	if err == nil {
		_, err = res.Collect()
		res.Close()
	}
	if err == nil {
		t.Fatal("query with worker 0 down succeeded; want a clean failure")
	}

	tc.restartWorker(0)
	for _, lq := range lslod.Queries() {
		_, want := runCanon(t, eng, lq.Text, base...)
		_, got := runCanon(t, eng, lq.Text, append([]ontario.Option{tc.opt}, base...)...)
		diffMultisets(t, "restart/after/"+lq.ID, want, got)
	}

	after := tc.client.Probe(ctx)
	if !after[0].Up || after[0].Info == nil {
		t.Fatalf("worker 0 not up after restart: %+v", after[0])
	}
	if after[0].Info.Epoch == epochBefore {
		t.Fatalf("worker 0 epoch unchanged across restart: %d", epochBefore)
	}
	if after[0].Reconnects < 1 {
		t.Fatalf("link 0 reconnects = %d after restart, want >= 1", after[0].Reconnects)
	}
}

// TestClusterCoPartitionedPushdown forces a subject-subject
// symmetric-hash join (triple decomposition, greedy ordering) whose two
// scans are both partitioned by the join variable: the coordinator must
// push the join subtree down to the co-partitioned workers — the
// executed operator is "co-join" and zero batches cross the wire as
// shuffle traffic — while the answer multiset stays identical to the
// single-node run. A subject-object join over the same pool is the
// control: not co-partitioned, so it must shuffle.
func TestClusterCoPartitionedPushdown(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	tc := bootCluster(t, 2, cluster.ClientConfig{})

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithTripleDecomposition(),
		ontario.WithOptimizer(ontario.OptimizerGreedy),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}

	// Both patterns share the subject ?disease, so both sides of the join
	// are partitioned by the join variable.
	coQuery := fmt.Sprintf(`SELECT ?disease ?name ?drug WHERE {
  ?disease <%s> ?name .
  ?disease <%s> ?drug .
}`, lslod.PredDiseaseName, lslod.PredPossibleDrug)
	_, want := runCanon(t, eng, coQuery, base...)
	if len(want) == 0 {
		t.Fatal("co-partitioned query returned no solutions single-node")
	}
	// Inject a query trace to observe the executed (post-unmerge) operator
	// kinds — the plan summary shows the merged-service plan, not the
	// distributed tree execution actually ran.
	qt := trace.NewQueryTrace()
	res, err := eng.Query(trace.WithQuery(context.Background(), qt), coQuery,
		append([]ontario.Option{tc.opt}, base...)...)
	if err != nil {
		t.Fatalf("cluster query: %v", err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatalf("cluster collect: %v", err)
	}
	res.Close()
	got := make([]string, len(rows))
	for i, b := range rows {
		got[i] = canonRow(b)
	}
	sort.Strings(got)
	diffMultisets(t, "co-partitioned", want, got)
	kinds := make([]string, 0, 8)
	coJoin := false
	for _, op := range qt.Ops() {
		kinds = append(kinds, op.Kind)
		if op.Kind == "co-join" {
			coJoin = true
		}
	}
	if !coJoin {
		t.Fatalf("co-partitioned join did not execute as co-join; executed operators: %v", kinds)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, ws := range tc.client.Probe(ctx) {
		if !ws.Up {
			t.Fatalf("worker %s down: %s", ws.Addr, ws.Err)
		}
		if ws.ShuffledBatches != 0 {
			t.Fatalf("worker %s shuffled %d batches; co-partitioned pushdown must shuffle none", ws.Addr, ws.ShuffledBatches)
		}
	}

	// Control: ?drug is the first pattern's object, so the sides are
	// partitioned by different variables and the join must shuffle.
	ctrlQuery := fmt.Sprintf(`SELECT ?disease ?drug ?gname WHERE {
  ?disease <%s> ?drug .
  ?drug <%s> ?gname .
}`, lslod.PredPossibleDrug, lslod.PredGenericName)
	_, wantCtrl := runCanon(t, eng, ctrlQuery, base...)
	if len(wantCtrl) == 0 {
		t.Fatal("control query returned no solutions single-node")
	}
	_, gotCtrl := runCanon(t, eng, ctrlQuery, append([]ontario.Option{tc.opt}, base...)...)
	diffMultisets(t, "control", wantCtrl, gotCtrl)
	var shuffled int64
	for _, ws := range tc.client.Probe(ctx) {
		shuffled += ws.ShuffledBatches
	}
	if shuffled == 0 {
		t.Fatal("subject-object control join shuffled no batches; the shuffle counter is not measuring")
	}
}

// oracleRows evaluates the query with sparql.EvalQuery over the lake
// materialized as one RDF graph — a reference sharing no planner, wrapper
// or operator code with the engine — and returns its answers as a sorted
// multiset of projected-variable rows.
func oracleRows(t *testing.T, lk *lslod.Lake, text string) []string {
	t.Helper()
	g := rdf.NewGraph()
	for _, id := range lk.Catalog.SourceIDs() {
		sg, err := lslod.GraphFromSource(lk.Catalog.Source(id))
		if err != nil {
			t.Fatalf("materializing %s: %v", id, err)
		}
		g.AddAll(sg.Triples())
	}
	q := sparql.MustParse(text)
	vars := q.ProjectedVars()
	var out []string
	for _, b := range sparql.EvalQuery(g, q) {
		terms := make([]string, len(vars))
		for i, v := range vars {
			if tm, ok := b[v]; ok {
				terms[i] = termRow(uint8(tm.Kind), tm.Value, tm.Datatype, tm.Lang)
			}
		}
		out = append(out, strings.Join(terms, "\x1e"))
	}
	sort.Strings(out)
	return out
}

// termRow renders one term for oracle comparison; a plain literal and an
// explicit xsd:string are the same term.
func termRow(kind uint8, value, datatype, lang string) string {
	if datatype == "http://www.w3.org/2001/XMLSchema#string" {
		datatype = ""
	}
	return fmt.Sprintf("%d\x1f%s\x1f%s\x1f%s", kind, value, datatype, lang)
}

// TestClusterSplitOracle runs the merged-service shapes a cluster splits
// on 1, 2 and 3 workers and checks every answer multiset against the
// SPARQL oracle, not against single-node execution. It also pins the
// executed join operators: the Heuristic-1 requests run as block bind
// joins (Q2 without a single shuffled batch), and the subject–subject
// split of a triple decomposition stays a co-partitioned co-join.
func TestClusterSplitOracle(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	run := []ontario.Option{
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	threeStar := fmt.Sprintf(`SELECT ?d1 ?n1 ?g ?d2 ?deg WHERE {
  ?d1 <%s> ?n1 .
  ?d1 <%s> ?g .
  ?g <%s> ?chrom .
  ?g <%s> ?glabel .
  ?d2 <%s> ?g .
  ?d2 <%s> ?deg .
  FILTER (?chrom = "chr7")
}`, lslod.PredDiseaseName, lslod.PredAssociatedGene, lslod.PredGeneChromosome,
		lslod.PredGeneLabel, lslod.PredAssociatedGene, lslod.PredDegree)
	subjectSubject := fmt.Sprintf(`SELECT ?disease ?name ?drug WHERE {
  ?disease <%s> ?name .
  ?disease <%s> ?drug .
}`, lslod.PredDiseaseName, lslod.PredPossibleDrug)
	cases := []struct {
		name  string
		text  string
		opts  []ontario.Option
		joins []string // executed join operators, sorted
	}{
		{"Q2", lslod.QueryText("Q2"), []ontario.Option{ontario.WithAwarePlan()},
			[]string{"block-bind-join"}},
		{"Q4", lslod.QueryText("Q4"), []ontario.Option{ontario.WithAwarePlan()},
			[]string{"bind-join", "block-bind-join"}},
		{"three-star", threeStar, []ontario.Option{ontario.WithAwarePlan()},
			[]string{"block-bind-join", "block-bind-join"}},
		{"subject-subject", subjectSubject, []ontario.Option{
			ontario.WithAwarePlan(),
			ontario.WithTripleDecomposition(),
			ontario.WithOptimizer(ontario.OptimizerGreedy),
		}, []string{"co-join"}},
	}
	want := make([][]string, len(cases))
	for i, c := range cases {
		want[i] = oracleRows(t, lk, c.text)
		if len(want[i]) == 0 {
			t.Fatalf("%s: the oracle has no answers; the case proves nothing", c.name)
		}
	}
	shuffled := func(tc *testCluster) int64 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var n int64
		for _, ws := range tc.client.Probe(ctx) {
			n += ws.ShuffledBatches
		}
		return n
	}
	for _, workers := range []int{1, 2, 3} {
		tc := bootCluster(t, workers, cluster.ClientConfig{})
		for i, c := range cases {
			label := fmt.Sprintf("%s/%dw", c.name, workers)
			before := shuffled(tc)
			qt := trace.NewQueryTrace()
			opts := append(append([]ontario.Option{tc.opt}, run...), c.opts...)
			res, err := eng.Query(trace.WithQuery(context.Background(), qt), c.text, opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rows, err := res.Collect()
			res.Close()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			vars := sparql.MustParse(c.text).ProjectedVars()
			got := make([]string, len(rows))
			for r, b := range rows {
				terms := make([]string, len(vars))
				for k, v := range vars {
					if tm, ok := b[v]; ok {
						terms[k] = termRow(uint8(tm.Kind), tm.Value, tm.Datatype, tm.Lang)
					}
				}
				got[r] = strings.Join(terms, "\x1e")
			}
			sort.Strings(got)
			diffMultisets(t, label, want[i], got)

			var joins []string
			for _, op := range qt.Ops() {
				if strings.HasSuffix(op.Kind, "-join") {
					joins = append(joins, op.Kind)
				}
			}
			sort.Strings(joins)
			if strings.Join(joins, ",") != strings.Join(c.joins, ",") {
				t.Fatalf("%s: executed joins %v, want %v", label, joins, c.joins)
			}
			if c.name == "Q2" {
				if n := shuffled(tc) - before; n != 0 {
					t.Fatalf("%s: shuffled %d batches; the block bind join must shuffle none", label, n)
				}
			}
		}
	}
}

// TestClusterAnalyzeRendersSplit checks EXPLAIN ANALYZE of merged services
// on a cluster: the merged node carries the actuals of the split chain
// that ran in its place, the chain renders beneath it with its block bind
// join and per-service actuals, and the nodes above keep theirs.
func TestClusterAnalyzeRendersSplit(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	tc := bootCluster(t, 2, cluster.ClientConfig{})
	for _, id := range []string{"Q2", "Q4"} {
		res, err := eng.Query(context.Background(), lslod.QueryText(id), tc.opt,
			ontario.WithAwarePlan(), ontario.WithNetwork(ontario.NoDelay), ontario.WithNetworkScale(0))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := res.Collect(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		a := res.Analyze()
		res.Close()

		var merged *ontario.PlanSummary
		for _, n := range walkSummaries(a.Plan) {
			if n.Operator == "merged-service" {
				merged = n
				continue
			}
			if merged == nil && n.Actual == nil {
				t.Fatalf("%s: %s node above the merged service lacks actuals", id, n.Operator)
			}
		}
		if merged == nil {
			t.Fatalf("%s: no merged-service node in the plan", id)
		}
		if merged.Actual == nil || merged.Actual.BindingsOut == 0 {
			t.Fatalf("%s: merged service shows no actuals: %+v", id, merged.Actual)
		}
		if len(merged.Children) != 1 {
			t.Fatalf("%s: merged service renders %d children, want its split chain", id, len(merged.Children))
		}
		join := merged.Children[0]
		if join.Actual == nil || join.Actual.Kind != "block-bind-join" || join.Actual.BlocksIssued == 0 {
			t.Fatalf("%s: split root actual = %+v, want a block-bind-join that issued blocks", id, join.Actual)
		}
		if join.Actual.BindingsOut != merged.Actual.BindingsOut {
			t.Fatalf("%s: merged service reports %d answers, its split chain %d",
				id, merged.Actual.BindingsOut, join.Actual.BindingsOut)
		}
		for _, svc := range join.Children {
			if svc.Operator != "service" || svc.Actual == nil || svc.Actual.Kind != "service" {
				t.Fatalf("%s: split chain leaf %s lacks service actuals", id, svc.Operator)
			}
		}
		text := a.String()
		if !strings.Contains(text, "merged-service[diseasome]") || !strings.Contains(text, "join block-bind on [gene]") {
			t.Fatalf("%s: rendered analysis lacks the split chain:\n%s", id, text)
		}
	}
}
