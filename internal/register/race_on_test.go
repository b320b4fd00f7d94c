//go:build race

package register

const raceEnabled = true
