package core

import (
	"context"
	"math"
	"sort"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
)

// Distributor executes plan fragments on a cluster of partitioned
// workers. internal/cluster provides the implementation; core only
// depends on this interface so the executor stays free of any transport
// concern.
type Distributor interface {
	// Workers returns the size of the worker pool.
	Workers() int
	// Service runs one wrapper request on every worker's partition of
	// the source, streaming the union of their batches.
	Service(ctx context.Context, sourceID string, req *wrapper.Request, schema *engine.Schema, d *dict.Dict, env FragmentEnv) (*engine.CStream, error)
	// ShuffleJoin hash-partitions both inputs by join key across the
	// workers and streams back the union of the per-worker symmetric
	// hash joins.
	ShuffleJoin(ctx context.Context, left, right *engine.CStream, joinVars []string, out *engine.Schema, d *dict.Dict, env FragmentEnv) (*engine.CStream, error)
	// Colocated reports whether the pool is a complete co-partitioned
	// cut of the lake under a common partition scheme — the precondition
	// for pushing a partition-aligned join down whole via RunFragment.
	Colocated(ctx context.Context, d *dict.Dict) bool
	// RunFragment runs a serializable plan subtree on every worker's
	// partition and streams back the union of their local results; the
	// caller must have proven (via partition analysis plus Colocated)
	// that local evaluation distributes over the partitioning.
	RunFragment(ctx context.Context, root PlanNode, out *engine.Schema, d *dict.Dict, env FragmentEnv) (*engine.CStream, error)
}

// FragmentEnv carries the per-execution context a distributor forwards to
// workers: the execution-shaping options plus the simulation parameters,
// and the execution's error sink for asynchronous fragment failures.
type FragmentEnv struct {
	Opts  Options
	Scale float64
	Seed  int64
	// Fail parks an asynchronous fragment failure on the execution (the
	// cursor's Err reports the first one); cancellation is ignored.
	Fail func(error)
}

// fragmentEnv builds the distributor context for this execution.
func (x *Execution) fragmentEnv(opts Options) FragmentEnv {
	return FragmentEnv{Opts: opts, Scale: x.scale, Seed: x.seed, Fail: x.fail}
}

// RunService executes one wrapper request on the columnar plane against
// this execution's catalog — the worker-side entry point for distributed
// scan fragments.
func (x *Execution) RunService(ctx context.Context, sourceID string, req *wrapper.Request, schema *engine.Schema, opts Options) (*engine.CStream, error) {
	w, err := x.wrapperFor(sourceID, opts)
	if err != nil {
		return nil, err
	}
	return wrapper.ExecuteColumnar(ctx, w, req, schema, x.dict)
}

// Dict returns the executor's shared term dictionary (the lake-lifetime
// dictionary every execution interns into).
func (e *Executor) Dict() *dict.Dict { return e.terms }

// splitMergedService builds the tree a partitioned cluster runs in place
// of a Heuristic-1 merged service (one request joining several stars
// inside a single relational source). Partitioned workers hold disjoint
// row-slices of the source, so the pushed-down intra-source join would
// silently drop every pair of stars living on different partitions; the
// split runs one single-star service per star instead. cards holds each
// star's estimated answers, the planner's starCard.
//
// Each pushed filter follows the first star that covers its variables
// (and scales that star's estimate by filterSelectivity); filters spanning
// stars lift to an engine-level FilterNode above the chain. The most
// selective star runs first as a full scan. Every later star — greedily
// the most selective one sharing a variable with the stars before it —
// joins by block bind join: the left bindings fan out to every worker as
// seed blocks, and the relational wrapper answers each block with one
// IN-list query on the indexed join column. A star whose subject is a
// partition variable of the chain so far joins by symmetric hash instead:
// that join is co-partitioned, so the co-join pushdown runs it
// worker-local without a shuffle.
func splitMergedService(v *ServiceNode, cards []float64) PlanNode {
	stars := v.Req.Stars
	starVars := make([]map[string]bool, len(stars))
	for i, s := range stars {
		set := make(map[string]bool)
		for _, vn := range s.Vars() {
			set[vn] = true
		}
		starVars[i] = set
	}

	sel := append([]float64(nil), cards...)
	perStar := make([][]sparql.Expr, len(stars))
	var lifted []sparql.Expr
	for _, f := range v.Req.Filters {
		placed := false
		for i := range stars {
			if coveredBy(starVars[i], f.Vars()) {
				perStar[i] = append(perStar[i], f)
				sel[i] = math.Max(sel[i]*filterSelectivity, 1)
				placed = true
				break
			}
		}
		if !placed {
			lifted = append(lifted, f)
		}
	}

	var node PlanNode
	acc := make(map[string]bool)
	done := make([]bool, len(stars))
	for range stars {
		// Prefer the stars sharing a variable with the chain so far (any
		// other is a cross product); among them, the most selective.
		next, nextLinked := -1, false
		for i := range stars {
			if done[i] {
				continue
			}
			linked := sharesVar(starVars[i], acc)
			if next < 0 || linked && !nextLinked || linked == nextLinked && sel[i] < sel[next] {
				next, nextLinked = i, linked
			}
		}
		done[next] = true
		svc := &ServiceNode{
			SourceID: v.SourceID,
			Req:      &wrapper.Request{Stars: []*wrapper.StarQuery{stars[next]}, Filters: perStar[next]},
		}
		if node == nil {
			node = svc
		} else {
			var joinVars []string
			for vn := range starVars[next] {
				if acc[vn] {
					joinVars = append(joinVars, vn)
				}
			}
			sort.Strings(joinVars)
			op := JoinBlockBind
			if len(joinVars) == 0 || partitionVars(node)[stars[next].SubjectVar] {
				op = JoinSymmetricHash
			}
			node = &JoinNode{L: node, R: svc, JoinVars: joinVars, Op: op}
		}
		for vn := range starVars[next] {
			acc[vn] = true
		}
	}
	if len(lifted) > 0 {
		node = &FilterNode{Child: node, Exprs: lifted}
	}
	return node
}

func coveredBy(set map[string]bool, vars []string) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}

func sharesVar(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}
