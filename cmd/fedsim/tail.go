package main

// fedsim tail — render the JSONL round journal written by -journal as a
// human-readable round log, optionally following the file as a live run
// appends to it.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// openJournal opens (creating, appending) a journal sink at path. Shared
// by serve and the in-process experiments' -journal wiring.
func openJournal(path string, epochs int) (*obs.Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening -journal: %w", err)
	}
	return obs.NewJournal(f, epochs), nil
}

// runTail prints the last `last` round events of the journal at path
// (0 = every round, run boundaries included), then with -follow keeps
// polling the file and printing new events as the writer appends them.
func runTail(stdout io.Writer, path string, last int, follow bool) error {
	if path == "" {
		return errors.New("tail needs -journal <path>")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, offset := obs.ReadEvents(data)
	if len(events) == 0 && !follow {
		return fmt.Errorf("%s holds no journal events", path)
	}
	for _, ev := range tailWindow(events, last) {
		fmt.Fprintln(stdout, formatEvent(ev))
	}
	if !follow {
		return nil
	}
	// Follow by polling: re-read from the last complete line. A torn
	// final line (the writer is mid-append) is retried next tick; a file
	// that shrank was truncated or rotated, so start over from the top.
	for {
		time.Sleep(500 * time.Millisecond)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if len(data) < offset {
			offset = 0
		}
		fresh, consumed := obs.ReadEvents(data[offset:])
		offset += consumed
		for _, ev := range fresh {
			fmt.Fprintln(stdout, formatEvent(ev))
		}
	}
}

// tailWindow trims events so at most `last` round events remain (0 keeps
// everything). Run boundaries inside the window stay.
func tailWindow(events []obs.Event, last int) []obs.Event {
	if last <= 0 {
		return events
	}
	rounds := 0
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Event == "round" {
			if rounds++; rounds == last {
				// Pull in an immediately preceding run_start so the first
				// shown round is attributed to its method.
				if i > 0 && events[i-1].Event == "run_start" {
					i--
				}
				return events[i:]
			}
		}
	}
	return events
}

// formatEvent renders one journal event as a log line.
func formatEvent(ev obs.Event) string {
	switch ev.Event {
	case "run_start":
		resumed := ""
		if ev.StartRound > 0 {
			resumed = fmt.Sprintf(" (resumed at round %d)", ev.StartRound)
		}
		return fmt.Sprintf("── %s: %d rounds × %d clients%s",
			ev.Method, ev.TotalRounds, ev.NClients, resumed)
	case "round":
		var b strings.Builder
		fmt.Fprintf(&b, "round %3d  %d/%d reported", ev.Round, ev.Reported, ev.Invited)
		if ev.Partial+ev.Late+ev.Offline+ev.Failed > 0 {
			fmt.Fprintf(&b, " (on-time %d, partial %d, late %d, offline %d, failed %d)",
				ev.OnTime, ev.Partial, ev.Late, ev.Offline, ev.Failed)
		}
		if ev.Masked+ev.Suspects > 0 {
			fmt.Fprintf(&b, "  defense masked %d suspects %d", ev.Masked, ev.Suspects)
		}
		fmt.Fprintf(&b, "  up %s (+%s)", fl.FormatBytes(ev.UpBytes), fl.FormatBytes(ev.UpDelta))
		fmt.Fprintf(&b, "  local %v / round %v", phaseDur(ev.Phases.LocalNS), phaseDur(ev.Phases.TotalNS))
		if ev.EvalRound >= 0 {
			fmt.Fprintf(&b, "  eval acc %.2f%% loss %.4f", 100*ev.MeanAcc, ev.MeanLoss)
		}
		if ev.Checkpoint {
			b.WriteString("  [checkpoint]")
		}
		return b.String()
	case "run_end":
		if ev.Aborted {
			return fmt.Sprintf("── run aborted after %d completed round(s)", ev.Completed)
		}
		return fmt.Sprintf("── run complete: %d rounds", ev.Completed)
	default:
		return fmt.Sprintf("── %s event", ev.Event)
	}
}

// phaseDur renders a nanosecond phase duration at a precision fitting
// its magnitude (quick rounds are sub-millisecond; real ones seconds).
func phaseDur(ns int64) time.Duration {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
