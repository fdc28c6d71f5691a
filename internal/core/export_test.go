package core

// ProvVisits exposes the provenance entries the engine's last run read
// for stale conflict sides.
func ProvVisits(e *Engine) int { return e.provVisits }
