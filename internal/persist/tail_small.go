//go:build parksmalltail

package persist

// historyTailRecords is 2 under the parksmalltail build tag: nearly
// every history read, replication resume and StateAt then decodes the
// WAL. See tail_default.go.
const historyTailRecords = 2
