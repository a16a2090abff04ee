package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestStatus drives `fedsim status` against a stand-in control plane:
// the /status body is printed as sent, with a newline added when it lacks
// one; a refused /status or /checkpoint is one "fedsim: …" line, exit 1.
func TestStatus(t *testing.T) {
	for _, c := range []struct {
		name       string
		status     int    // what /status answers
		checkpoint int    // what POST /checkpoint answers
		trigger    bool   // pass -trigger-checkpoint
		exit       int    // want
		stdout     string // want
		stderr     string // want
		posts      int32  // want POSTs to /checkpoint
	}{
		{name: "ok", status: http.StatusOK, exit: 0, stdout: `{"round":3}` + "\n"},
		{name: "trigger-armed", status: http.StatusOK, checkpoint: http.StatusOK, trigger: true, exit: 0, posts: 1,
			stdout: "checkpoint trigger armed — next completed round snapshots\n" + `{"round":3}` + "\n"},
		{name: "status-refused", status: http.StatusServiceUnavailable, exit: 1,
			stderr: "fedsim: coordinator said 503 Service Unavailable: no run yet\n"},
		{name: "trigger-refused", status: http.StatusOK, checkpoint: http.StatusMethodNotAllowed, trigger: true, exit: 1, posts: 1,
			stderr: "fedsim: triggering checkpoint: coordinator said 405 Method Not Allowed\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var posts atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/checkpoint":
					posts.Add(1)
					w.WriteHeader(c.checkpoint)
				case r.Method == http.MethodGet && r.URL.Path == "/status" && c.status == http.StatusOK:
					fmt.Fprint(w, `{"round":3}`) // no trailing newline
				case r.Method == http.MethodGet && r.URL.Path == "/status":
					http.Error(w, "no run yet", c.status)
				default:
					t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
				}
			}))
			defer srv.Close()

			args := []string{"status", "-addr", strings.TrimPrefix(srv.URL, "http://")}
			if c.trigger {
				args = append(args, "-trigger-checkpoint")
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != c.exit {
				t.Errorf("exit %d, want %d", code, c.exit)
			}
			if stdout.String() != c.stdout || stderr.String() != c.stderr {
				t.Errorf("stdout %q, stderr %q; want %q, %q", stdout.String(), stderr.String(), c.stdout, c.stderr)
			}
			if n := posts.Load(); n != c.posts {
				t.Errorf("%d POSTs to /checkpoint, want %d", n, c.posts)
			}
		})
	}
}
