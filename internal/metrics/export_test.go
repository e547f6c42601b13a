package metrics

import (
	"time"
)

// Test-only accessors: nothing outside this package's tests needs them.

// Window reports the configured window width (0 when disabled).
func (r *Recorder) Window() time.Duration { return r.window }

// SchedWall reports the wall-clock time of the timed decisions.
func (r *Recorder) SchedWall() time.Duration { return r.schedWall }
