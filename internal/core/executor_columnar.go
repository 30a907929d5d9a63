package core

import (
	"context"
	"fmt"
	"strings"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/sparql"
	"ontario/internal/trace"
	"ontario/internal/wrapper"
)

// ExecuteColumnar runs the plan on the dictionary-encoded columnar data
// plane — the default exchange — and returns the answer stream, plus the
// dictionary the consumer needs to materialize terms from the IDs (the
// Results cursor and the server's JSON writer do this late, at the very
// edge). The dictionary is the executor's engine-lifetime one, so
// repeated queries over the static lake re-intern nothing new; an
// execution created without an executor falls back to a private
// dictionary. The stream applies the query's solution modifiers.
//
// Execute remains the row-at-a-time reference pipeline; Options.
// RowExchange selects it.
func (x *Execution) ExecuteColumnar(ctx context.Context, p *Plan) (*engine.CStream, *dict.Dict, error) {
	qt := trace.FromContext(ctx)
	if qt == nil {
		qt = trace.NewQueryTrace()
		ctx = trace.WithQuery(ctx, qt)
	}
	x.mu.Lock()
	x.qt = qt
	x.mu.Unlock()

	d := x.dict
	if d == nil {
		d = dict.New()
	}
	root, err := x.runColumnar(ctx, p.Root, p.Opts, d)
	if err != nil {
		return nil, nil, err
	}
	q := p.Query
	s := root
	batch := p.Opts.EffectiveBatchSize()
	if vars := q.ProjectedVars(); len(vars) > 0 {
		mctx := engine.WithOpStats(ctx, x.modifierStats("project", strings.Join(vars, ",")))
		s = engine.CProject(mctx, s, vars, batch)
	}
	if q.Distinct {
		mctx := engine.WithOpStats(ctx, x.modifierStats("distinct", ""))
		s = engine.CDistinct(mctx, s, batch)
	}
	if len(q.OrderBy) > 0 {
		mctx := engine.WithOpStats(ctx, x.modifierStats("order-by", ""))
		s = engine.COrderBy(mctx, s, q.OrderBy, d, batch)
	}
	if q.Offset > 0 {
		mctx := engine.WithOpStats(ctx, x.modifierStats("offset", ""))
		s = engine.COffset(mctx, s, q.Offset, batch)
	}
	if q.Limit >= 0 {
		mctx := engine.WithOpStats(ctx, x.modifierStats("limit", ""))
		s = engine.CLimit(mctx, s, q.Limit, batch)
	}
	return s, d, nil
}

// emptyCStream returns a closed columnar stream (a failed service's
// stand-in while the join keeps draining).
func emptyCStream(schema *engine.Schema) *engine.CStream {
	s := engine.NewCStream(schema, 0)
	s.Close()
	return s
}

// runColumnar mirrors run over the columnar exchange: the same plan
// shapes, operator kinds and stats registration, with every operator's
// output schema fixed to its plan node's variables.
func (x *Execution) runColumnar(ctx context.Context, n PlanNode, opts Options, d *dict.Dict) (*engine.CStream, error) {
	switch v := n.(type) {
	case *ServiceNode:
		if opts.Cluster != nil && v.Split != nil {
			// Partitioned workers cannot answer a pushed-down intra-source
			// join over rows split across partitions: run the planner's
			// single-star chain instead.
			return x.runColumnar(ctx, v.Split, opts, d)
		}
		schema := engine.NewSchema(v.Vars())
		if dist := opts.Cluster; dist != nil {
			s, err := dist.Service(ctx, v.SourceID, v.Req, schema, d, x.fragmentEnv(opts))
			if err != nil {
				return nil, err
			}
			return engine.CMeter(ctx, s, x.stats(v, "service", v.SourceID)), nil
		}
		w, err := x.wrapperFor(v.SourceID, opts)
		if err != nil {
			return nil, err
		}
		s, err := wrapper.ExecuteColumnar(ctx, w, v.Req, schema, d)
		if err != nil {
			return nil, err
		}
		// Leaf streams are produced inside the wrapper; a metering relay
		// attributes the production to the service node's stats.
		return engine.CMeter(ctx, s, x.stats(v, "service", v.SourceID)), nil
	case *JoinNode:
		out := engine.NewSchema(v.Vars())
		if dist := opts.Cluster; dist != nil && coPartitioned(v) && dist.Colocated(ctx, d) {
			// Both sides are partitioned by a shared join variable and the
			// pool is a complete co-partitioned cut of the lake: ship the
			// subtree whole, each worker joins its own partition locally,
			// and only results cross the wire — zero shuffled batches.
			st := x.stats(v, "co-join", strings.Join(v.JoinVars, ","))
			jctx := engine.WithOpStats(ctx, st)
			s, err := dist.RunFragment(jctx, v, out, d, x.fragmentEnv(opts))
			if err != nil {
				return nil, err
			}
			return engine.CMeter(jctx, s, st), nil
		}
		if v.Op == JoinBind || v.Op == JoinBlockBind {
			// A merged right side cannot take seeds on a cluster (its
			// split is a chain, not one request); it joins by hash below.
			if svc, ok := v.R.(*ServiceNode); ok && (opts.Cluster == nil || svc.Split == nil) {
				left, err := x.runColumnar(ctx, v.L, opts, d)
				if err != nil {
					return nil, err
				}
				// Under cluster execution seeded requests fan out to the
				// worker pool instead of a local wrapper; the partitions are
				// disjoint so the union over workers answers each seed
				// exactly once.
				dist := opts.Cluster
				var w wrapper.Wrapper
				if dist == nil {
					var err error
					w, err = x.wrapperFor(svc.SourceID, opts)
					if err != nil {
						return nil, err
					}
				}
				runSvc := func(ctx context.Context, req *wrapper.Request, schema *engine.Schema) (*engine.CStream, error) {
					if dist != nil {
						return dist.Service(ctx, svc.SourceID, req, schema, d, x.fragmentEnv(opts))
					}
					return wrapper.ExecuteColumnar(ctx, w, req, schema, d)
				}
				svcStats := x.stats(svc, "service", svc.SourceID)
				// One schema per service node: every seeded invocation of
				// the right side shares it, so the join resolves the right
				// layout once.
				svcSchema := engine.NewSchema(svc.Vars())
				if v.Op == JoinBlockBind {
					service := func(ctx context.Context, seeds []sparql.Binding) *engine.CStream {
						if len(seeds) == 0 {
							// An unconstrained block (cross product) is still
							// one block request — and one response message —
							// not a fallback to per-answer retrieval.
							seeds = []sparql.Binding{sparql.NewBinding()}
						}
						req := &wrapper.Request{
							Stars:   svc.Req.Stars,
							Filters: svc.Req.Filters,
							Seeds:   seeds,
						}
						s, err := runSvc(ctx, req, svcSchema)
						if err != nil {
							// The join keeps draining other blocks; park the
							// failure so the consumer sees it after the stream.
							x.fail(fmt.Errorf("source %s: %w", svc.SourceID, err))
							return emptyCStream(svcSchema)
						}
						return engine.CMeter(ctx, s, svcStats)
					}
					jctx := engine.WithOpStats(ctx,
						x.stats(v, "block-bind-join", strings.Join(v.JoinVars, ",")))
					return engine.CBlockBindJoin(jctx, left, service, v.JoinVars, out, d,
						opts.EffectiveBindBlockSize(), opts.EffectiveBindConcurrency(),
						opts.EffectiveBatchSize()), nil
				}
				service := func(ctx context.Context, seed sparql.Binding) *engine.CStream {
					req := &wrapper.Request{
						Stars:   svc.Req.Stars,
						Filters: svc.Req.Filters,
						Seed:    seed,
					}
					s, err := runSvc(ctx, req, svcSchema)
					if err != nil {
						x.fail(fmt.Errorf("source %s: %w", svc.SourceID, err))
						return emptyCStream(svcSchema)
					}
					return engine.CMeter(ctx, s, svcStats)
				}
				jctx := engine.WithOpStats(ctx,
					x.stats(v, "bind-join", strings.Join(v.JoinVars, ",")))
				return engine.CBindJoin(jctx, left, service, v.JoinVars, out, d,
					opts.EffectiveBatchSize()), nil
			}
			// Fall through to symmetric hash when the right side is not a
			// plain service.
		}
		left, err := x.runColumnar(ctx, v.L, opts, d)
		if err != nil {
			return nil, err
		}
		right, err := x.runColumnar(ctx, v.R, opts, d)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case JoinNestedLoop:
			jctx := engine.WithOpStats(ctx,
				x.stats(v, "nested-loop-join", strings.Join(v.JoinVars, ",")))
			return engine.CNestedLoopJoin(jctx, left, right, v.JoinVars, out,
				opts.EffectiveBatchSize()), nil
		default:
			if dist := opts.Cluster; dist != nil {
				// The morsel-sharded exchange becomes the distributed
				// shuffle: rows shard by join-key hash across workers
				// instead of across local shard workers.
				jctx := engine.WithOpStats(ctx,
					x.stats(v, "shuffle-join", strings.Join(v.JoinVars, ",")))
				return dist.ShuffleJoin(jctx, left, right, v.JoinVars, out, d, x.fragmentEnv(opts))
			}
			jctx := engine.WithOpStats(ctx,
				x.stats(v, "hash-join", strings.Join(v.JoinVars, ",")))
			return engine.CSymmetricHashJoin(jctx, left, right, v.JoinVars, out,
				opts.EffectiveProbeParallelism(), opts.EffectiveBatchSize()), nil
		}
	case *LeftJoinNode:
		left, err := x.runColumnar(ctx, v.L, opts, d)
		if err != nil {
			return nil, err
		}
		right, err := x.runColumnar(ctx, v.R, opts, d)
		if err != nil {
			return nil, err
		}
		jctx := engine.WithOpStats(ctx, x.stats(v, "left-join", ""))
		return engine.CLeftJoin(jctx, left, right, v.Filters, engine.NewSchema(v.Vars()), d,
			opts.EffectiveBatchSize()), nil
	case *FilterNode:
		in, err := x.runColumnar(ctx, v.Child, opts, d)
		if err != nil {
			return nil, err
		}
		fctx := engine.WithOpStats(ctx, x.stats(v, "filter", ""))
		return engine.CFilter(fctx, in, v.Exprs, d, opts.EffectiveBatchSize()), nil
	case *UnionNode:
		var streams []*engine.CStream
		for _, c := range v.Children {
			s, err := x.runColumnar(ctx, c, opts, d)
			if err != nil {
				return nil, err
			}
			streams = append(streams, s)
		}
		uctx := engine.WithOpStats(ctx, x.stats(v, "union", ""))
		return engine.CUnion(uctx, engine.NewSchema(v.Vars()), opts.EffectiveBatchSize(), streams...), nil
	default:
		return nil, fmt.Errorf("core: unknown plan node %T", n)
	}
}
