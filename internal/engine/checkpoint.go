package engine

import (
	"fmt"

	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// Clustered-schedule checkpoint section names (RunClusteredFedAvg owns
// these; PACFL and FedClust read them back through ResumeClustered).
const (
	secClusteredLabels = "clustered/labels"
	secClusteredModels = "clustered/models"
	secClusteredMeta   = "clustered/meta"
)

// resume checks the checkpoint against this run (Checkpoint.Matches) and
// restores the accumulated Result and the method's server state. It
// returns the round index the loop continues from. A refusal panics: a
// caller that read the checkpoint from outside the process checks it with
// Matches first and reports the error (fedsim serve does), so reaching a
// mismatch here is a wiring bug, and silently training a different run
// would be worse than dying.
func (d *RoundDriver) resume(c *fl.Checkpoint) int {
	if err := c.Matches(d.Env, d.Res.Method, d.NumParams); err != nil {
		panic("engine: resume: " + err.Error())
	}
	s := c.Loader()
	d.walkState(s)
	if s.Err != nil {
		panic("engine: resume: " + s.Err.Error())
	}
	return c.Round
}

// maybeCheckpoint emits a snapshot after a completed round when the
// environment's plan says so — every plan.Every rounds, or on a pulled
// trigger. The emitted checkpoint is self-contained (all state copied),
// so the sink may hold it while training keeps mutating the live buffers.
func (d *RoundDriver) maybeCheckpoint(round int) {
	plan := d.Env.Ckpt
	if plan == nil || plan.Sink == nil {
		return
	}
	due := plan.Every > 0 && (round+1)%plan.Every == 0
	if !due && plan.Trigger != nil && plan.Trigger() {
		due = true
	}
	if !due {
		return
	}
	// Re-arm the phase clock at the checkpoint body: the gap since the
	// round's last lap is glue, not checkpoint time (TotalNS still covers
	// it).
	if d.es.timing {
		d.es.stamp = obs.Now()
	}
	c := fl.NewCheckpoint(d.Env, d.Res.Method, round+1, d.NumParams, plan.SpecHash)
	d.walkState(c.Saver())
	plan.Sink(c)
	if ob := d.Env.Observer; ob != nil {
		ob.ObserveCheckpoint(round + 1)
	}
	d.es.lap(phCheckpoint)
	if obs.Enabled() {
		engineM().checkpoints.Inc()
	}
}

// walkState lists everything a snapshot holds beyond the run's identity —
// the accumulated Result, the error-feedback residuals of a sparse run,
// and the method's own server state — in the direction s was built for.
// Save and resume both run exactly this list.
func (d *RoundDriver) walkState(s *fl.Sections) {
	if d.Hooks.State == nil {
		panic(fmt.Sprintf("engine: %s has no State hook and can neither checkpoint nor resume", d.Res.Method))
	}
	s.Result(d.Res)
	if d.es.ef != nil {
		d.es.ef.State(s)
	}
	d.Hooks.State(s)
}

// ResumeClustered reports whether the environment carries a pending
// resume checkpoint for this method's clustered-FedAvg schedule. ok is
// false when there is nothing to resume — the caller then runs its
// one-shot clustering phase as usual. On ok, the caller skips that phase
// entirely (its traffic and formation bookkeeping live in the restored
// Result) and passes the returned buffers straight to RunClusteredFedAvg:
// they are sized for the checkpoint's k clusters and still blank — the
// schedule's State walk fills labels and models like any other method's.
func (d *RoundDriver) ResumeClustered() (labels []int, k int, models [][]float64, ok bool) {
	plan := d.Env.Ckpt
	if plan == nil || plan.Resume == nil || plan.Resume.Method != d.Res.Method {
		return nil, 0, nil, false
	}
	meta, err := plan.Resume.Ints(secClusteredMeta, 1)
	if err != nil {
		panic("engine: resume: " + err.Error())
	}
	k = int(meta[0])
	if k < 1 || k > len(d.Env.Clients) {
		panic(fmt.Sprintf("engine: resume: checkpoint cluster count %d out of range", k))
	}
	models = make([][]float64, k)
	for i := range models {
		models[i] = make([]float64, d.NumParams)
	}
	return make([]int, len(d.Env.Clients)), k, models, true
}
