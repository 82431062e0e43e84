package diagnose

// MultiSinkCase exposes the 3-sink 4x4 array of the planner tests to the
// external diagnose_test package.
var MultiSinkCase = multiSinkCase

// Golden returns the fault-free sink readings of vector v. The slice must
// not be modified.
func (sg *Signatures) Golden(v int) []bool { return sg.cv.Golden(v) }

// Alive returns the surviving candidate indices, ascending.
func (s *Session) Alive() []int { return Members(s.alive) }
