// Miss-context discovery (§III-A, Fig. 6): given labeled LBR snapshots from
// executions of an injection site, find the combination of predictor blocks
// whose presence maximizes P(miss | context) by Bayes' rule, subject to a
// recall floor so the condition still fires on most miss-leading paths.
//
// The search itself lives in two files: discover.go is the bitmask-scoring
// fast path every caller uses, reference.go the frozen oracle it is tested
// against. The types they share stay here, outside both.
package core

// ContextResult is the outcome of discovery for one (site, target) pair.
type ContextResult struct {
	// Blocks is the chosen predictor-block set (empty = stay unconditional).
	Blocks []int32
	// Precision is the estimated P(miss | context present).
	Precision float64
	// Recall is the fraction of miss-leading site executions whose history
	// contained the context.
	Recall float64
	// Baseline is P(miss | site executes) with no context (1 − fan-out).
	Baseline float64
}

// Conditional reports whether a context was adopted.
func (c ContextResult) Conditional() bool { return len(c.Blocks) > 0 }
