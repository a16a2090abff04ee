package obs

// Snapshot returns the current value of every counter/gauge series as
// "name{labels}" → value (histograms contribute their _count).
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, name := range r.order {
		f := r.fams[name]
		for _, labels := range f.order {
			key := name
			if labels != "" {
				key += "{" + labels + "}"
			}
			switch v := f.series[labels].(type) {
			case *Counter:
				out[key] = float64(v.Value())
			case counterFn:
				out[key] = float64(v())
			case *Gauge:
				out[key] = v.Value()
			case gaugeFn:
				out[key] = v()
			case *Histogram:
				out[key+"_count"] = float64(v.Count())
			}
		}
	}
	return out
}
