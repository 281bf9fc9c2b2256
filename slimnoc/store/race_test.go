//go:build race

package store

// raceEnabled is true under the race detector, whose sync.Pool drops pooled
// values at random: encoding/json's scanners are then allocated afresh, so
// allocation counts measure the detector, not the code.
const raceEnabled = true
