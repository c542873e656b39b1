//go:build !unix

package store

import "os"

// tryLock always succeeds where advisory file locks are not available,
// so every writer handle takes the first log it opens: on such platforms
// a root must have one writing handle at a time.
func tryLock(*os.File) (bool, error) { return true, nil }

// lockWait is a no-op where advisory file locks are not available.
func lockWait(*os.File) error { return nil }
