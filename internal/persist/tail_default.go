//go:build !parksmalltail

package persist

// historyTailRecords bounds how many committed transactions the store
// keeps in memory; older ones since the checkpoint are read back from
// the WAL. Building with -tags parksmalltail shrinks it to 2, so that
// the test suites exercise the WAL-backed reads.
const historyTailRecords = 1024
