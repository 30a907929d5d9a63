package ontario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ontario/internal/core"
	"ontario/internal/engine"
	"ontario/internal/trace"
)

// Actual is the observed runtime behaviour of one plan operator — the
// EXPLAIN ANALYZE counterpart of Estimate. Counters are a snapshot while
// the query is still running and final once the cursor is exhausted or
// closed.
type Actual struct {
	// Kind is the physical operator as executed ("service", "hash-join",
	// "bind-join", "block-bind-join", "nested-loop-join", ...); it may be
	// more specific than the plan node's Operator.
	Kind string `json:"kind"`
	// Label carries operator detail: the source ID of a service, the join
	// variables of a join, the projected variables of a projection.
	Label string `json:"label,omitempty"`
	// BindingsIn/BatchesIn count the operator's consumed input (both join
	// sides combined); BindingsOut/BatchesOut its produced output —
	// BindingsOut is the actual cardinality to hold against
	// Estimate.Cardinality.
	BindingsIn  int64 `json:"bindings_in"`
	BatchesIn   int64 `json:"batches_in"`
	BindingsOut int64 `json:"bindings_out"`
	BatchesOut  int64 `json:"batches_out"`
	// Wall is construction-to-completion wall time; BlockedRecv/BlockedSend
	// the time spent waiting on the input exchange and on the downstream
	// consumer.
	Wall        time.Duration `json:"wall_ns"`
	BlockedRecv time.Duration `json:"blocked_recv_ns"`
	BlockedSend time.Duration `json:"blocked_send_ns"`
	// HashEntries counts a symmetric hash join's table insertions across
	// shards; BlocksIssued a (block) bind join's service requests. Zero for
	// other operators.
	HashEntries  int64 `json:"hash_entries,omitempty"`
	BlocksIssued int64 `json:"blocks_issued,omitempty"`
}

// RemoteSpan is one federated request to a remote source as seen from this
// node: attempts made by the resilience layer, the circuit-breaker state
// after the call, total latency, and — when the peer is itself an ontario
// server — the peer's query ID and its own nested spans, so a federation
// tree is visible from its root.
type RemoteSpan struct {
	Source string `json:"source"`
	// QueryID is the peer-assigned query ID propagated back on the
	// response; empty for non-ontario endpoints.
	QueryID   string       `json:"query_id,omitempty"`
	Attempts  int          `json:"attempts"`
	Breaker   string       `json:"breaker,omitempty"`
	LatencyMS float64      `json:"latency_ms"`
	Error     string       `json:"error,omitempty"`
	Children  []RemoteSpan `json:"children,omitempty"`
}

func (sp RemoteSpan) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "remote[%s] attempts=%d latency=%.1fms", sp.Source, sp.Attempts, sp.LatencyMS)
	if sp.Breaker != "" {
		fmt.Fprintf(b, " breaker=%s", sp.Breaker)
	}
	if sp.QueryID != "" {
		fmt.Fprintf(b, " query=%s", sp.QueryID)
	}
	if sp.Error != "" {
		fmt.Fprintf(b, " error=%q", sp.Error)
	}
	b.WriteByte('\n')
	for _, c := range sp.Children {
		c.render(b, depth+1)
	}
}

// Analysis is the result of EXPLAIN ANALYZE: the executed plan annotated
// with per-operator actuals and federated request spans, plus the query's
// trace identity.
type Analysis struct {
	// TraceID is the W3C trace ID shared across every node of a federated
	// query; QueryID is this node's span ID (the ID access logs and the
	// slow-query log correlate on).
	TraceID string `json:"trace_id"`
	QueryID string `json:"query_id"`
	// Plan is the executed plan with Actual (and Remote, for federated
	// service nodes) populated.
	Plan *PlanSummary `json:"plan"`
	// Modifiers holds the actuals of the solution-modifier pipeline above
	// the plan root (project, distinct, order-by, offset, limit), in
	// execution order.
	Modifiers []Actual `json:"modifiers,omitempty"`
}

// String renders the analysis as text: the plan tree with `{act ...}`
// annotations and remote spans, headed by the trace identity.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query=%s trace=%s\n", a.QueryID, a.TraceID)
	for i := len(a.Modifiers) - 1; i >= 0; i-- {
		m := a.Modifiers[i]
		b.WriteString(m.Kind)
		if m.Label != "" {
			fmt.Fprintf(&b, " [%s]", m.Label)
		}
		fmt.Fprintf(&b, "  {act card=%d in=%d wall=%s}\n",
			m.BindingsOut, m.BindingsIn, m.Wall.Round(time.Microsecond))
	}
	a.Plan.render(&b, len(a.Modifiers))
	return b.String()
}

// Analyze returns the EXPLAIN ANALYZE view of this query: the executed
// plan annotated with observed per-operator cardinalities, wall and
// blocked times, join gauges, and the spans of federated requests. Safe to
// call while the cursor is open (a snapshot) or after it finished (final
// numbers).
func (r *Results) Analyze() *Analysis {
	a := &Analysis{Plan: r.Plan()}
	if qt := r.exec.Trace(); qt != nil {
		a.TraceID = qt.TraceID
		a.QueryID = qt.QueryID
		spans := make(map[string][]RemoteSpan)
		for _, sp := range qt.RemoteSpans() {
			spans[sp.Source] = append(spans[sp.Source], remoteSpanFromInternal(sp))
		}
		attachActuals(a.Plan, r.plan.Root, r.exec, spans)
	}
	for _, m := range r.exec.ModifierActuals() {
		a.Modifiers = append(a.Modifiers, actualFromInternal(m))
	}
	return a
}

// QueryID returns the query's span ID — the identifier the server's access
// log, slow-query log and federated peers correlate on. Empty before the
// execution started.
func (r *Results) QueryID() string {
	if qt := r.exec.Trace(); qt != nil {
		return qt.QueryID
	}
	return ""
}

// TraceID returns the W3C trace ID shared by every node this query
// touched. Empty before the execution started.
func (r *Results) TraceID() string {
	if qt := r.exec.Trace(); qt != nil {
		return qt.TraceID
	}
	return ""
}

// ExplainAnalyze runs the query to completion, discards the answers, and
// returns the rendered analysis: the plan annotated with actual per-node
// cardinalities and times alongside the cost model's estimates, plus a
// summary footer. The error (if the execution failed mid-stream) is
// returned together with the analysis of the partial run.
func (e *Engine) ExplainAnalyze(ctx context.Context, queryText string, options ...Option) (string, error) {
	res, err := e.Query(ctx, queryText, options...)
	if err != nil {
		return "", err
	}
	defer res.Close()
	for res.Next() {
	}
	st := res.Stats()
	var b strings.Builder
	b.WriteString(res.Analyze().String())
	fmt.Fprintf(&b, "answers=%d messages=%d duration=%s ttfa=%s\n",
		st.Answers, st.Messages, st.Duration.Round(time.Microsecond),
		st.TimeToFirstAnswer.Round(time.Microsecond))
	return b.String(), res.Err()
}

// attachActuals walks the summary tree and the plan tree in lockstep
// (summarize mirrors the plan structure exactly), pairing every node with
// its observed stats and every service node with its remote spans.
func attachActuals(s *PlanSummary, n core.PlanNode, exec *core.Execution, spans map[string][]RemoteSpan) {
	if act, ok := exec.NodeActuals(n); ok {
		a := actualFromInternal(act)
		s.Actual = &a
	}
	switch v := n.(type) {
	case *core.ServiceNode:
		s.Remote = spans[v.SourceID]
		if act, ok := exec.NodeActuals(v.Split); ok {
			// A cluster ran the merged request as its split chain: the
			// chain's output is the node's, and the chain renders beneath.
			a := actualFromInternal(act)
			s.Actual = &a
			s.Children = []*PlanSummary{summarize(v.Split)}
			attachActuals(s.Children[0], v.Split, exec, spans)
		}
	case *core.JoinNode:
		if len(s.Children) == 2 {
			attachActuals(s.Children[0], v.L, exec, spans)
			attachActuals(s.Children[1], v.R, exec, spans)
		}
	case *core.LeftJoinNode:
		if len(s.Children) == 2 {
			attachActuals(s.Children[0], v.L, exec, spans)
			attachActuals(s.Children[1], v.R, exec, spans)
		}
	case *core.FilterNode:
		if len(s.Children) == 1 {
			attachActuals(s.Children[0], v.Child, exec, spans)
		}
	case *core.UnionNode:
		if len(s.Children) == len(v.Children) {
			for i, c := range v.Children {
				attachActuals(s.Children[i], c, exec, spans)
			}
		}
	}
}

func actualFromInternal(a engine.OpActuals) Actual {
	return Actual{
		Kind:         a.Kind,
		Label:        a.Label,
		BindingsIn:   a.BindingsIn,
		BatchesIn:    a.BatchesIn,
		BindingsOut:  a.BindingsOut,
		BatchesOut:   a.BatchesOut,
		Wall:         a.Wall,
		BlockedRecv:  a.BlockedRecv,
		BlockedSend:  a.BlockedSend,
		HashEntries:  a.HashEntries,
		BlocksIssued: a.BlocksIssued,
	}
}

func remoteSpanFromInternal(sp trace.RemoteSpan) RemoteSpan {
	out := RemoteSpan{
		Source:    sp.Source,
		QueryID:   sp.QueryID,
		Attempts:  sp.Attempts,
		Breaker:   sp.Breaker,
		LatencyMS: sp.LatencyMS,
		Error:     sp.Error,
	}
	for _, c := range sp.Children {
		out.Children = append(out.Children, remoteSpanFromInternal(c))
	}
	return out
}
