package taskmine

// TemplateSet interns each distinct Template into a dense int32 ID, so
// the mining stages (common-flow extraction, apriori pattern growth,
// closed pruning, segmentation) run over []int32 sequences with integer
// comparisons and array-indexed counters instead of rebuilding and
// hashing the templates' string renderings. The same trick syslog-template
// miners use to survive template explosion ("Finding Needles in the
// Haystack"): intern once, mine over dense IDs.
//
// IDs are assigned by first appearance, so a set filled from the same
// runs in the same order is identical.
type TemplateSet struct {
	ids   map[Template]int32
	tmpls []Template
}

// NewTemplateSet returns an empty interner.
func NewTemplateSet() *TemplateSet {
	return &TemplateSet{ids: make(map[Template]int32)}
}

// ID interns t, assigning the next dense ID on first sight.
func (s *TemplateSet) ID(t Template) int32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	id := int32(len(s.tmpls))
	s.ids[t] = id
	s.tmpls = append(s.tmpls, t)
	return id
}

// Template returns the template interned as id.
func (s *TemplateSet) Template(id int32) Template { return s.tmpls[id] }

// Len returns the number of distinct templates interned.
func (s *TemplateSet) Len() int { return len(s.tmpls) }

// InternRun maps one run to its ID sequence, interning new templates.
func (s *TemplateSet) InternRun(run []Template) []int32 {
	out := make([]int32, len(run))
	for i, t := range run {
		out[i] = s.ID(t)
	}
	return out
}

// packCand packs a candidate pattern identity into one comparable
// integer: the dense ID of its length-(L-1) prefix pattern plus the
// interned ID of its last template. Every length-L sequence has exactly
// one such encoding, so candidate maps need no string keys at all, and
// sorting the packed keys gives a deterministic candidate order.
func packCand(prefix, last int32) int64 {
	return int64(prefix)<<32 | int64(uint32(last))
}
