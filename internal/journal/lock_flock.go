//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package journal

import (
	"errors"
	"os"
	"syscall"
)

// lock takes an exclusive, non-blocking flock on f. The kernel drops it
// when f's last descriptor closes, kill -9 included, so a dead holder never
// leaves a stale lock for its restart to wait out.
func lock(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return ErrLocked
	}
	return err
}
