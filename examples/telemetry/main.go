// Telemetry: watch where a federated run spends its time.
//
// It enables the process metrics gate, attaches a JSONL round journal to
// a small FedAvg run, and prints both observability surfaces: the
// per-round journal events (what `fedsim -journal` writes to disk and
// `fedsim tail` renders) and the Prometheus text exposition the control
// plane serves at GET /metrics.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"os"

	"fedclust/internal/experiments"
	"fedclust/internal/methods"
	"fedclust/internal/obs"
)

func main() {
	// 1. Turn the process telemetry gate on. `fedsim serve -control`
	//    does this when the control plane starts; in-process it is one
	//    explicit call. Off (the default), every instrumentation site
	//    costs a single atomic load and the engine skips phase timing.
	obs.Enable()

	// 2. A journal observer: one JSONL event per completed round. Here
	//    it streams to stdout; -journal writes the same bytes to a file.
	journal := obs.NewJournal(os.Stdout, 1)

	w := experiments.QuickWorkload("cifar10")
	env := experiments.Common{Seed: 1, Observer: journal}.Env(w)

	res := methods.FedAvg{}.Run(env)
	fmt.Printf("\nFedAvg: %.2f%% mean personalized accuracy (%s)\n",
		100*res.FinalAcc, res.Comm.String())

	// 3. The same run seen through the metrics registry: cumulative
	//    counters plus per-phase latency histograms, in the exact bytes
	//    a Prometheus scrape of /metrics would receive.
	fmt.Println("\n--- GET /metrics ---")
	if err := obs.Default().WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
