//go:build race

package mergetree

const raceEnabled = true
