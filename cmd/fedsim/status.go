package main

// fedsim status — query a running coordinator's HTTP control plane.

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// runStatus fetches /status from a coordinator's control plane (started
// with `serve -control <addr>`) and prints the JSON snapshot; with
// -trigger-checkpoint it first POSTs /checkpoint to arm the on-demand
// snapshot trigger.
func runStatus(stdout io.Writer, addr string, trigger bool) error {
	base := "http://" + displayAddr(addr)
	client := &http.Client{Timeout: 5 * time.Second}
	if trigger {
		resp, err := client.Post(base+"/checkpoint", "application/json", strings.NewReader(""))
		if err != nil {
			return fmt.Errorf("triggering checkpoint: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("triggering checkpoint: coordinator said %s", resp.Status)
		}
		fmt.Fprintln(stdout, "checkpoint trigger armed — next completed round snapshots")
	}
	resp, err := client.Get(base + "/status")
	if err != nil {
		return fmt.Errorf("querying %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading status: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator said %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Fprint(stdout, string(body))
	if !strings.HasSuffix(string(body), "\n") {
		fmt.Fprintln(stdout)
	}
	return nil
}
