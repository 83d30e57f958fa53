package study

// SetResolveHook makes f observe every grid resolution until the returned
// function is called. Tests that count resolutions must not run in parallel
// with other tests of this package.
func SetResolveHook(f func()) (restore func()) {
	resolveHook = f
	return func() { resolveHook = nil }
}
