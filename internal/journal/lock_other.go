//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package journal

import "os"

// lock is a no-op where the standard library offers no flock: there, one
// writer per journal is the operator's to keep.
func lock(*os.File) error { return nil }
