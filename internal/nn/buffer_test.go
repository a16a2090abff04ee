package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// zooCases are the three architectures of the model zoo at fixed seeds,
// with the FNV-1a of each one's FlattenParams. The He draws run layer by
// layer from the factory's stream, the order the zoo has always drawn
// them in, so a reordered draw fails here before it reaches a golden.
var zooCases = []struct {
	name  string
	build func() *Sequential
	fnv   uint64
}{
	{"mlp", func() *Sequential { return MLP(rng.New(1), 64, 32, 10) }, 0xbd6dff72d33a2b07},
	{"lenet5", func() *Sequential { return LeNet5(rng.New(2), 3, 16, 16, 10, 0.5) }, 0x24b3ec3cd435fcab},
	{"minivgg16", func() *Sequential { return MiniVGG16(rng.New(3), 3, 10, 2) }, 0xc96183c8bf884e98},
}

// TestZooParamsFingerprint pins every zoo model's initial weights bit for
// bit.
func TestZooParamsFingerprint(t *testing.T) {
	for _, c := range zooCases {
		h := fnv.New64a()
		var b [8]byte
		for _, v := range FlattenParams(c.build()) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.fnv {
			t.Errorf("%s: FlattenParams FNV-1a %#016x, want %#016x", c.name, got, c.fnv)
		}
	}
}

// TestParamsAreWindowsOfOneBuffer is the storage invariant of
// SequentialOf, for every zoo model and its Mirror32: Params()[i].Data
// and Grads()[i].Data are the consecutive windows of ParamData() and
// GradData(), in order and covering them, each capacity-limited to its
// own length.
func TestParamsAreWindowsOfOneBuffer(t *testing.T) {
	for _, c := range zooCases {
		net := c.build()
		t.Run(c.name, func(t *testing.T) { checkWindows(t, net) })
		t.Run(c.name+"/float32", func(t *testing.T) { checkWindows(t, Mirror32(net)) })
	}
}

func checkWindows[T tensor.Float](t *testing.T, net *SequentialOf[T]) {
	for _, side := range []struct {
		name string
		ts   []*tensor.Of[T]
		buf  []T
	}{{"params", net.Params(), net.ParamData()}, {"grads", net.Grads(), net.GradData()}} {
		if len(side.buf) != net.NumParams() || cap(side.buf) != len(side.buf) {
			t.Fatalf("%s buffer: len %d cap %d, want %d parameters", side.name, len(side.buf), cap(side.buf), net.NumParams())
		}
		off := 0
		for i, x := range side.ts {
			n := numel(x.Shape)
			if len(x.Data) != n || cap(x.Data) != n {
				t.Fatalf("%s %d: len %d cap %d, want both %d", side.name, i, len(x.Data), cap(x.Data), n)
			}
			if &x.Data[0] != &side.buf[off] {
				t.Fatalf("%s %d is not the buffer's window at %d", side.name, i, off)
			}
			off += n
		}
		if off != len(side.buf) {
			t.Fatalf("%s windows cover %d of %d values", side.name, off, len(side.buf))
		}
	}
}

// TestSequentialAllocatesModelOnce: building a network allocates its
// parameters and its gradients once each. A construction that gave each
// layer its own tensors and then copied them into the two buffers would
// allocate the model twice over; the bound sits halfway between.
func TestSequentialAllocatesModelOnce(t *testing.T) {
	src := MLP(rng.New(4), 256, 128, 64, 8)
	for _, c := range []struct {
		name  string
		size  int
		build func()
	}{
		{"float64", 8, func() { MLP(rng.New(4), 256, 128, 64, 8) }},
		{"float32", 4, func() { Mirror32(src) }},
	} {
		model := uint64(src.NumParams() * c.size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.build()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < 2*model || got > 3*model {
			t.Errorf("%s: building a %d-byte model allocated %d bytes, want its parameters and gradients once (2×)", c.name, model, got)
		}
	}
}
