//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package journal

import "os"

// lock is a no-op where the standard library offers no flock: there, one
// writer per journal is the operator's to keep.
func lock(*os.File) error { return nil }

// syncDir is a no-op here too: Windows, for one, cannot fsync a directory,
// so a rename there is as durable as the platform makes it.
func syncDir(string) error { return nil }
