package task

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// JoinCondition enumerates the supported join types.
type JoinCondition int

// Join conditions, written in flow files as "inner", "left outer",
// "right outer" and "full outer" (case-insensitive, Appendix A mixes
// cases freely).
const (
	InnerJoin JoinCondition = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
)

// String renders the condition in flow-file form.
func (c JoinCondition) String() string {
	switch c {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left outer"
	case RightOuterJoin:
		return "right outer"
	case FullOuterJoin:
		return "full outer"
	default:
		return "join"
	}
}

// ProjPair maps one qualified input column (<object>_<column>) to an
// output column name, per the paper's join project blocks.
type ProjPair struct {
	Qualified string
	Out       string
}

// JoinSpec implements the join task (Appendix A.1): an equi-join of two
// data objects with explicit column projection.
type JoinSpec struct {
	// LeftName / RightName are the expected input data-object names.
	LeftName, RightName string
	// LeftKeys / RightKeys are the equi-join key columns.
	LeftKeys, RightKeys []string
	// Condition is the join type.
	Condition JoinCondition
	// Project lists output columns in order; empty means all columns of
	// both sides under their qualified names.
	Project []ProjPair
}

// parseBySide parses "players_tweets by player" or "t by (a, b)".
func parseBySide(s string) (name string, keys []string, err error) {
	i := strings.Index(s, " by ")
	if i < 0 {
		return "", nil, fmt.Errorf("join: side %q must be '<data> by <columns>'", s)
	}
	name = strings.TrimSpace(s[:i])
	rest := strings.TrimSpace(s[i+4:])
	rest = strings.TrimPrefix(rest, "(")
	rest = strings.TrimSuffix(rest, ")")
	for _, k := range strings.Split(rest, ",") {
		k = strings.TrimSpace(k)
		if k != "" {
			keys = append(keys, k)
		}
	}
	if name == "" || len(keys) == 0 {
		return "", nil, fmt.Errorf("join: side %q must be '<data> by <columns>'", s)
	}
	return name, keys, nil
}

func parseJoin(cfg *flowfile.Node) (Spec, error) {
	s := &JoinSpec{}
	var err error
	if s.LeftName, s.LeftKeys, err = parseBySide(cfg.Str("left")); err != nil {
		return nil, err
	}
	if s.RightName, s.RightKeys, err = parseBySide(cfg.Str("right")); err != nil {
		return nil, err
	}
	if len(s.LeftKeys) != len(s.RightKeys) {
		return nil, fmt.Errorf("join: %d left keys vs %d right keys", len(s.LeftKeys), len(s.RightKeys))
	}
	switch strings.ToLower(strings.Join(strings.Fields(cfg.Str("join_condition")), " ")) {
	case "", "inner":
		s.Condition = InnerJoin
	case "left outer", "left":
		s.Condition = LeftOuterJoin
	case "right outer", "right":
		s.Condition = RightOuterJoin
	case "full outer", "full":
		s.Condition = FullOuterJoin
	default:
		return nil, fmt.Errorf("join: unknown join_condition %q", cfg.Str("join_condition"))
	}
	if proj := cfg.Get("project"); proj != nil {
		if proj.Kind != flowfile.MapNode {
			return nil, fmt.Errorf("join: project must be a property block")
		}
		for _, e := range proj.Entries {
			if e.Value.Kind != flowfile.ScalarNode {
				return nil, fmt.Errorf("join: project entry %q must map to a column name", e.Key)
			}
			s.Project = append(s.Project, ProjPair{Qualified: e.Key, Out: e.Value.Scalar})
		}
	}
	return s, nil
}

// Type implements Spec.
func (s *JoinSpec) Type() string { return "join" }

// sides orders the two bind-time inputs as (left, right) by matching
// their data-object names against the configuration. When names are
// unavailable (anonymous intermediates) positional order is used.
func (s *JoinSpec) sides(in []Input) (left, right Input, err error) {
	if len(in) != 2 {
		return Input{}, Input{}, fmt.Errorf("join: expected 2 inputs, got %d", len(in))
	}
	a, b := in[0], in[1]
	switch {
	case a.Name == s.LeftName && b.Name == s.RightName:
		return a, b, nil
	case a.Name == s.RightName && b.Name == s.LeftName:
		return b, a, nil
	case a.Name == "" || b.Name == "":
		return a, b, nil
	default:
		return Input{}, Input{}, fmt.Errorf("join: inputs (%s, %s) do not match configured sides (%s, %s)",
			a.Name, b.Name, s.LeftName, s.RightName)
	}
}

// qualify builds the map from qualified column names to (side, index):
// side 0 = left, 1 = right.
type qualCol struct {
	side int
	idx  int
}

func (s *JoinSpec) qualified(left, right Input) map[string]qualCol {
	q := map[string]qualCol{}
	for i, c := range left.Schema.Columns() {
		q[s.LeftName+"_"+c.Name] = qualCol{side: 0, idx: i}
	}
	for i, c := range right.Schema.Columns() {
		q[s.RightName+"_"+c.Name] = qualCol{side: 1, idx: i}
	}
	return q
}

// outPlan computes the output schema and the per-column source slots.
func (s *JoinSpec) outPlan(left, right Input) (*schema.Schema, []qualCol, error) {
	if _, err := left.Schema.Require(s.LeftKeys...); err != nil {
		return nil, nil, fmt.Errorf("join left: %w", err)
	}
	if _, err := right.Schema.Require(s.RightKeys...); err != nil {
		return nil, nil, fmt.Errorf("join right: %w", err)
	}
	q := s.qualified(left, right)
	var cols []schema.Column
	var slots []qualCol
	if len(s.Project) > 0 {
		for _, p := range s.Project {
			qc, ok := q[p.Qualified]
			if !ok {
				return nil, nil, fmt.Errorf("join: project source %q not found (inputs %s, %s)", p.Qualified, s.LeftName, s.RightName)
			}
			cols = append(cols, schema.Column{Name: p.Out})
			slots = append(slots, qc)
		}
	} else {
		for i, c := range left.Schema.Columns() {
			cols = append(cols, schema.Column{Name: s.LeftName + "_" + c.Name})
			slots = append(slots, qualCol{side: 0, idx: i})
		}
		for i, c := range right.Schema.Columns() {
			cols = append(cols, schema.Column{Name: s.RightName + "_" + c.Name})
			slots = append(slots, qualCol{side: 1, idx: i})
		}
	}
	out, err := schema.New(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("join: %w", err)
	}
	return out, slots, nil
}

// Out implements Spec.
func (s *JoinSpec) Out(in []Input) (*schema.Schema, error) {
	left, right, err := s.sides(in)
	if err != nil {
		return nil, err
	}
	out, _, err := s.outPlan(left, right)
	return out, err
}

func joinKey(r table.Row, idx []int) string {
	var b strings.Builder
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteByte(byte(r[j].Kind()))
		b.WriteString(r[j].String())
	}
	return b.String()
}

// Exec implements Spec: a hash join building on the right side.
func (s *JoinSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("join: expected 2 inputs, got %d", len(in))
	}
	inputs := inputsOf(in, names)
	left, right, err := s.sides(inputs)
	if err != nil {
		return nil, err
	}
	// sides() may have swapped the inputs to match configuration order;
	// swap the tables the same way.
	lt, rt := in[0], in[1]
	if inputs[0].Name == s.RightName && inputs[1].Name == s.LeftName && s.LeftName != s.RightName {
		lt, rt = in[1], in[0]
	}
	out, slots, err := s.outPlan(left, right)
	if err != nil {
		return nil, err
	}
	lIdx, _ := left.Schema.Require(s.LeftKeys...)
	rIdx, _ := right.Schema.Require(s.RightKeys...)

	build := map[string][]int{}
	for i, r := range rt.Rows() {
		k := joinKey(r, rIdx)
		build[k] = append(build[k], i)
	}
	makeRow := func(lr, rr table.Row) table.Row {
		row := make(table.Row, len(slots))
		for i, sl := range slots {
			src := lr
			if sl.side == 1 {
				src = rr
			}
			if src == nil {
				row[i] = value.VNull
			} else {
				row[i] = src[sl.idx]
			}
		}
		return row
	}
	// Probe: sharded across workers for large left sides; per-shard
	// output buffers concatenate in shard order, so the result is
	// identical to the sequential probe.
	lRows := lt.Rows()
	workers := 1
	if len(lRows) >= parallelJoinThreshold {
		workers = runtime.GOMAXPROCS(0)
		if env != nil && env.Parallelism > 0 {
			workers = env.Parallelism
		}
		if workers > len(lRows) {
			workers = len(lRows)
		}
	}
	shardOut := make([][]table.Row, workers)
	shardMatched := make([][]bool, workers)
	var wg sync.WaitGroup
	chunk := (len(lRows) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(lRows) {
			break
		}
		if hi > len(lRows) {
			hi = len(lRows)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			matched := make([]bool, rt.Len())
			var rows []table.Row
			for _, lr := range lRows[lo:hi] {
				matches := build[joinKey(lr, lIdx)]
				if len(matches) == 0 {
					if s.Condition == LeftOuterJoin || s.Condition == FullOuterJoin {
						rows = append(rows, makeRow(lr, nil))
					}
					continue
				}
				for _, ri := range matches {
					matched[ri] = true
					rows = append(rows, makeRow(lr, rt.Row(ri)))
				}
			}
			shardOut[w] = rows
			shardMatched[w] = matched
		}(w, lo, hi)
	}
	wg.Wait()
	res := table.New(out)
	for _, rows := range shardOut {
		for _, r := range rows {
			res.Append(r)
		}
	}
	if s.Condition == RightOuterJoin || s.Condition == FullOuterJoin {
		for i := 0; i < rt.Len(); i++ {
			hit := false
			for _, matched := range shardMatched {
				if matched != nil && matched[i] {
					hit = true
					break
				}
			}
			if !hit {
				res.Append(makeRow(nil, rt.Row(i)))
			}
		}
	}
	return res, nil
}

// parallelJoinThreshold is the probe size below which sharding is not
// worth the coordination cost.
const parallelJoinThreshold = 8192
