package persist

import (
	"fmt"
	"slices"
)

// historyTailBytes bounds the atom text of the in-memory history tail,
// so that a few wide transactions cannot pin megabytes; the record
// bound is historyTailRecords (tail_*.go).
const historyTailBytes = 256 << 10

// pushHistoryLocked appends a committed transaction to the in-memory
// history tail and drops the oldest records beyond the tail's bounds;
// they stay readable from the WAL until the next checkpoint. The tail
// always ends at s.seq, so its first record is s.seq+1-len(s.history).
// Callers hold s.mu.
func (s *Store) pushHistoryLocked(txn TxnRecord) {
	s.history = append(s.history, txn)
	s.historyBytes += txnBytes(txn)
	for len(s.history) > 0 && (len(s.history) > historyTailRecords || s.historyBytes > historyTailBytes) {
		s.historyBytes -= txnBytes(s.history[0])
		s.history[0] = TxnRecord{} // release the strings now, not at the next regrowth
		s.history = s.history[1:]
	}
}

// resetHistoryLocked empties the history window: the state at s.seq
// has just become the checkpoint. Callers hold s.mu.
func (s *Store) resetHistoryLocked() {
	s.history, s.historyBytes = nil, 0
}

func txnBytes(txn TxnRecord) int {
	n := 0
	for _, a := range txn.Added {
		n += len(a)
	}
	for _, a := range txn.Removed {
		n += len(a)
	}
	return n
}

// historyCut is a read of the history window taken under the commit
// lock: the tail's records from some sequence on, and the range of
// older ones the read has to decode from the WAL.
type historyCut struct {
	tail    []TxnRecord
	baseSeq int
	// walFrom <= Seq < walTo are the transactions to read back from
	// the first walSize bytes of the WAL; none when walFrom >= walTo.
	walFrom, walTo int
	walSize        int64
}

// cutHistoryLocked captures the committed transactions since the last
// checkpoint with Seq >= from. When from reaches behind the tail it
// takes walGate shared, so that no checkpoint truncates the WAL before
// readCut has decoded it; every cut must therefore be passed to
// readCut. Callers hold s.mu.
func (s *Store) cutHistoryLocked(from int) historyCut {
	from = max(from, s.baseSeq+1)
	first := s.seq + 1 - len(s.history)
	c := historyCut{baseSeq: s.baseSeq}
	c.tail = slices.Clone(s.history[min(max(from-first, 0), len(s.history)):])
	if from < first {
		c.walFrom, c.walTo, c.walSize = from, first, s.walBytes
		s.walGate.RLock()
	}
	return c
}

// readCut completes a history cut outside the commit lock, decoding
// the part older than the tail from the WAL. Records read back carry
// no trace ID: the WAL does not store them.
func (s *Store) readCut(c historyCut) ([]TxnRecord, error) {
	if c.walFrom >= c.walTo {
		return c.tail, nil
	}
	older, err := s.walHistory(c)
	s.walGate.RUnlock()
	if err != nil {
		return nil, err
	}
	return append(older, c.tail...), nil
}

// walHistory decodes the cut's WAL range. The first walSize bytes of
// the WAL are exactly what was appended since the checkpoint when the
// cut was taken, and walGate keeps them in place.
func (s *Store) walHistory(c historyCut) ([]TxnRecord, error) {
	path := s.walPath()
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading history from the wal: %w", err)
	}
	if int64(len(data)) < c.walSize {
		return nil, fmt.Errorf("persist: wal holds %d bytes, history needs %d", len(data), c.walSize)
	}
	out := make([]TxnRecord, 0, c.walTo-c.walFrom+len(c.tail)) // readCut appends the tail
	seq := c.baseSeq
	_, _, corrupt := decodeWAL(path, data[:c.walSize], func(u *walUnit) error {
		if u.kind != 'C' {
			return nil
		}
		if u.txn.Seq == 0 {
			u.txn.Seq = seq + 1 // a legacy marker, numbered as recovery numbers it
		}
		if u.txn.Seq <= c.baseSeq {
			return nil // folded into the snapshot before a crash cut the truncation short
		}
		seq = u.txn.Seq
		if seq >= c.walFrom && seq < c.walTo {
			out = append(out, u.txn)
		}
		return nil
	})
	if corrupt != nil {
		return nil, fmt.Errorf("persist: reading history from the wal: %w", corrupt)
	}
	if len(out) != c.walTo-c.walFrom {
		return nil, fmt.Errorf("persist: wal holds %d of transactions [%d, %d)", len(out), c.walFrom, c.walTo)
	}
	return out, nil
}

// Growth is what the store holds that grows between checkpoints.
type Growth struct {
	// HistoryRecords and HistoryBytes are the in-memory history tail:
	// its committed transactions and their atom text in bytes. Both
	// are bounded.
	HistoryRecords int
	HistoryBytes   int
	// WALRecords and WALBytes are what was appended to the WAL since
	// the last checkpoint. Only a checkpoint bounds them.
	WALRecords int
	WALBytes   int64
}

// Growth samples the store's growth gauges.
func (s *Store) Growth() Growth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Growth{
		HistoryRecords: len(s.history),
		HistoryBytes:   s.historyBytes,
		WALRecords:     s.walRecords,
		WALBytes:       s.walBytes,
	}
}
