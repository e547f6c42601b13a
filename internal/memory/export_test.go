package memory

// Test-only accessors: nothing outside this package's tests needs them.

// Reserved reports the bytes currently reserved.
func (a *Arena) Reserved() int64 { return a.reserved }
