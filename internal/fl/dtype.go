package fl

import "fmt"

// DType selects the numeric compute path for local training and
// evaluation. Float64 is the golden reference path; Float32 routes
// LocalUpdate and the evaluation protocol through the float32
// instantiation of the numeric stack (SIMD kernels in internal/tensor)
// while keeping master weights and aggregation in float64. A lane is
// built in one dtype — see DESIGN.md §10.
type DType uint8

const (
	// Float64 is the default full-precision path.
	Float64 DType = iota
	// Float32 builds each lane's network in float32: the float64 master
	// parameters are rounded into it once per visit or load, the whole
	// local pass runs in float32, and the result is widened back
	// (widening is exact, so the float32 weights survive the float64
	// round-trip bit-identically).
	Float32
)

// String returns the canonical lowercase name used by the -dtype flag
// and the transport spec.
func (d DType) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// ParseDType parses the canonical names ("float64", "float32"; "" means
// Float64 so zero-valued specs keep the golden path).
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "float64", "f64":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("fl: unknown dtype %q (want float64 or float32)", s)
	}
}
