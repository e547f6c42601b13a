package sim

// Test-only accessors: nothing outside this package's tests needs them.

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }
