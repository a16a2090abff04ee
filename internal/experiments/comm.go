package experiments

import (
	"fmt"

	"fedclust/internal/cluster"
	"fedclust/internal/fl"
)

// CommRow is one method's communication profile for the cluster-formation
// comparison (experiment C1 in DESIGN.md).
type CommRow struct {
	Method string
	// FormationRound is when the clustering last changed (0 = one-shot).
	FormationRound int
	// FormationUpBytes is uplink traffic spent before clusters stabilized.
	FormationUpBytes int64
	// TotalUp/TotalDown are whole-run traffic.
	TotalUp, TotalDown int64
	// K is the discovered/used cluster count; ARI scores it against the
	// ground-truth groups.
	K   int
	ARI float64
	Acc float64
}

var commColumns = []Column[CommRow]{
	{"Method", func(r CommRow) string { return r.Method }},
	{"FormedAtRound", func(r CommRow) string { return fmt.Sprint(r.FormationRound) }},
	{"UplinkToForm", func(r CommRow) string { return fl.FormatBytes(r.FormationUpBytes) }},
	{"TotalUp", func(r CommRow) string { return fl.FormatBytes(r.TotalUp) }},
	{"TotalDown", func(r CommRow) string { return fl.FormatBytes(r.TotalDown) }},
	{"K", func(r CommRow) string { return fmt.Sprint(r.K) }},
	{"ARI", func(r CommRow) string { return f2(r.ARI) }},
	{"Acc%", func(r CommRow) string { return f1(100 * r.Acc) }},
}

// CommResult is the full C1 comparison.
type CommResult struct {
	Rows []CommRow
}

// CommOptions configures the comparison. The workload is the two-group
// construction (the setting where cluster formation is well defined).
type CommOptions struct {
	Common
	Rounds int // 0 = the comparison's own 15
}

// DefaultCommOptions compares the four clustering methods on fmnist-like
// data.
func DefaultCommOptions() CommOptions {
	return CommOptions{Common: Defaults()}
}

// RunComm executes FedClust, PACFL, IFCA and CFL in one two-group
// environment and reports when their clusters stabilize and how many
// uplink bytes that stabilization cost — the paper's "one-shot,
// partial-weights" efficiency claim versus iterative baselines.
func RunComm(opts CommOptions) *CommResult {
	w := opts.Workload()
	w.Rounds = 15
	if opts.Rounds > 0 {
		w.Rounds = opts.Rounds
	}
	methods := []string{"FedClust", "PACFL", "IFCA", "CFL"}
	var truth []int
	rows := sweep(opts.Common, commColumns, []axis{
		{n: 1, enter: func([]int, *fl.Env) (env *fl.Env) { env, truth = opts.GroupEnv(w); return env }},
		{n: len(methods)},
	}, func(at []int, env *fl.Env) CommRow {
		r := NewTrainer(methods[at[1]], w).Run(env)
		row := CommRow{
			Method:           methods[at[1]],
			FormationRound:   r.ClusterFormationRound,
			FormationUpBytes: r.ClusterFormationUpBytes,
			TotalUp:          r.Comm.UpBytes,
			TotalDown:        r.Comm.DownBytes,
			Acc:              r.FinalAcc,
		}
		if r.Clusters != nil {
			row.K, row.ARI = cluster.NumClusters(r.Clusters), cluster.ARI(r.Clusters, truth)
		}
		return row
	})
	return &CommResult{Rows: rows}
}

// Report prints the comparison table.
func (c *CommResult) Report() Report {
	return report(commColumns, c.Rows, c.ShapeChecks())
}

// ShapeChecks verifies the qualitative communication claims.
func (c *CommResult) ShapeChecks() []Check {
	byName := map[string]CommRow{}
	for _, r := range c.Rows {
		byName[r.Method] = r
	}
	fc, cfl, ifca := byName["FedClust"], byName["CFL"], byName["IFCA"]
	return []Check{
		check(fc.FormationRound == 0, "FedClust clusters one-shot (round 0)"),
		check(fc.FormationUpBytes < cfl.FormationUpBytes || cfl.FormationRound == 0, "FedClust formation uplink < CFL's"),
		check(fc.TotalDown < ifca.TotalDown, "FedClust downlink < IFCA's (K models/round)"),
		check(fc.ARI >= 0.99, "FedClust recovers true groups (ARI=1)"),
	}
}
