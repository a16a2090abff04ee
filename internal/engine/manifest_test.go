package engine_test

// Checkpoint manifest pin: for every golden case and the two semi-async
// methods, the round-3 snapshot's section names, per-section lengths and
// an FNV-1a of the encoded bytes are recorded in
// testdata/checkpoint_manifest.golden. A refactor of how state reaches a
// checkpoint must leave this file untouched — same sections, same
// lengths, same bytes — which is also what lets a checkpoint written
// before the refactor resume after it. Re-record (after an intended
// format change only) with `go test ./internal/engine -run
// TestCheckpointManifest -update`.

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"fedclust/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current output")

// manifest walks an encoded checkpoint without going through
// fl.DecodeCheckpoint's maps, so the pin covers the bytes on disk:
//
//	"FCKP" | u32 version | u16 len | method | meta state frame |
//	nVecs × (u16 len | name | Float64 frame) |
//	nInts × (u16 len | name | state frame) | crc32
func manifest(t *testing.T, enc []byte) string {
	t.Helper()
	h := fnv.New64a()
	h.Write(enc)
	rest := enc[8:]
	rest = rest[2+int(binary.LittleEndian.Uint16(rest)):]
	n, err := wire.StateFrameLen(rest, len(rest))
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := wire.DecodeStateFrame(rest[:n])
	if err != nil {
		t.Fatal(err)
	}
	rest = rest[n:]
	nVecs, nInts := int(meta[len(meta)-2]), int(meta[len(meta)-1])
	var b strings.Builder
	fmt.Fprintf(&b, "fnv=%016x bytes=%d", h.Sum64(), len(enc))
	for i := 0; i < nVecs+nInts; i++ {
		nameLen := int(binary.LittleEndian.Uint16(rest))
		name := string(rest[2 : 2+nameLen])
		rest = rest[2+nameLen:]
		kind, frameLen := "vec", wire.FrameLen
		if i >= nVecs {
			kind, frameLen = "int", wire.StateFrameLen
		}
		n, err := frameLen(rest, len(rest))
		if err != nil {
			t.Fatalf("section %q: %v", name, err)
		}
		// Both frame kinds carry their element count at bytes 4..8.
		fmt.Fprintf(&b, "\n  %s %s %d", kind, name, binary.LittleEndian.Uint32(rest[4:8]))
		rest = rest[n:]
	}
	if len(rest) != 4 {
		t.Fatalf("%d bytes after the last section, want the 4-byte crc", len(rest))
	}
	return b.String()
}

func TestCheckpointManifest(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases {
		_, snaps := captureRun(t, c.trainer(), goldenEnv(77, 6, c.part))
		fmt.Fprintf(&b, "%s %s\n", c.name, manifest(t, snaps[3]))
	}
	for _, c := range semiAsyncCases {
		if c.agg != nil {
			continue
		}
		_, snaps := captureRun(t, c.trainer, semiAsyncEnv(nil))
		fmt.Fprintf(&b, "%s %s\n", c.name, manifest(t, snaps[3]))
	}
	const path = "testdata/checkpoint_manifest.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("checkpoint manifest drifted from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
