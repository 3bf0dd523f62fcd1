package main

import (
	"incshrink/internal/query"
	"incshrink/internal/table"
)

// probeQuery times what CountWhere does before its scan, on every call:
// resolving the Q1 condition against the view schema and building the row
// predicate.
func probeQuery(pc *probeCtx, out values) error {
	schema := table.MustSchema("view", "left.key", "left.time", "right.key", "right.time")
	q := query.Count{Conds: []query.Cond{{Col: "right.time", DiffCol: "left.time", Op: query.LE, Val: 10}}}
	var err error
	row := table.Row{1, 2, 1, 5}
	out["query.rewrite_ns"] = perCallNS(pc.calls(20000), func() {
		var c *query.Compiled
		if c, err = query.Rewrite(q, schema); err == nil && c.Predicate()(row) {
			probeSink++
		}
	})
	return err
}
