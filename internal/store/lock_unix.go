//go:build unix

package store

import (
	"errors"
	"os"
	"syscall"
)

// tryLock takes an exclusive advisory lock on f without waiting. It
// reports false when another open file description holds the lock — in
// this process or another.
func tryLock(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return false, nil
	}
	return err == nil, err
}

// lockWait takes an exclusive advisory lock on f, waiting for it.
func lockWait(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}
