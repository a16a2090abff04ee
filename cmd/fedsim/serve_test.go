package main

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/methods"
)

// TestServeResumeRefusesAnotherRun: `serve -resume` of a checkpoint that
// distSpec's quick environment wrote, under flags that change the run,
// exits 1 with an error naming the identity component that differs, and
// does so before it listens. Under the flags the checkpoint was written
// with, the check passes and serve reaches its listener — here an address
// the test already holds, so Listen fails instead of waiting for nodes.
// FedProx's checkpoint carries its proximal μ in the local config, and
// serve checks it under the same μ.
func TestServeResumeRefusesAnotherRun(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	env, err := distSpec(true, 1, 0, fl.Float64).Build()
	if err != nil {
		t.Fatal(err)
	}
	prox, err := distTrainer("fedprox")
	if err != nil {
		t.Fatal(err)
	}
	proxEnv := *env
	proxEnv.Local.ProxMu = prox.(methods.FedProx).Mu
	dir := t.TempDir()
	write := func(method string, e *fl.Env) string {
		path := filepath.Join(dir, method+".ckpt")
		c := &fl.Checkpoint{Method: method, ID: e.Identity(), Round: 2, Rounds: e.Rounds}
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fedavg, fedprox := write("FedAvg", env), write("FedProx", &proxEnv)

	for _, tc := range []struct {
		method, ckpt string
		flags        []string
		want         string // in stderr
	}{
		{"fedavg", fedavg, []string{"-dtype", "float32"}, "checkpoint was written under another dtype"},
		{"fedavg", fedavg, []string{"-topk-frac", "0.05"}, "checkpoint was written under another codec"},
		{"fedprox", fedprox, []string{"-dtype", "float32"}, "checkpoint was written under another dtype"},
		{"fedavg", fedavg, nil, "address already in use"},
		{"fedprox", fedprox, nil, "address already in use"},
	} {
		args := append([]string{"serve", "-quick", "-methods", tc.method, "-resume", tc.ckpt, "-addr", held.Addr().String()}, tc.flags...)
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if code != 1 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("fedsim %s: exit %d, stderr %q; want exit 1 and %q", strings.Join(args[1:], " "), code, errOut.String(), tc.want)
		}
		if refused := tc.flags != nil; refused && strings.Contains(out.String(), "resuming") {
			t.Errorf("fedsim %s: accepted the checkpoint before refusing it:\n%s", strings.Join(args[1:], " "), out.String())
		}
	}
}
