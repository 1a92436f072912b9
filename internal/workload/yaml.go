package workload

// A minimal strict YAML-subset decoder. The module deliberately has no
// external dependencies, so the workload-spec loader carries its own parser
// for exactly the YAML the spec schema uses: block mappings, block
// sequences, single-line flow mappings/sequences, quoted and plain scalars,
// and comments. Everything else — tabs in indentation, duplicate keys,
// stray indentation, unterminated quotes or braces — is a hard error with a
// line number, in keeping with the suite's strict-decode policy (the JSON
// job decoder rejects unknown fields the same way).
//
// Scalars are kept as strings; the schema walker (decode in spec.go) types
// each one by the Go type of the field it lands in, so "08" or "1e3" mean
// whatever that field says they mean.

import (
	"fmt"
	"strconv"
	"strings"
)

// yamlMap is an order-preserving mapping node.
type yamlMap struct {
	keys []string
	vals map[string]any
}

func newYamlMap() *yamlMap {
	return &yamlMap{vals: make(map[string]any)}
}

func (m *yamlMap) set(key string, v any) bool {
	if _, dup := m.vals[key]; dup {
		return false
	}
	m.keys = append(m.keys, key)
	m.vals[key] = v
	return true
}

func (m *yamlMap) get(key string) (any, bool) {
	v, ok := m.vals[key]
	return v, ok
}

// yline is one content-bearing source line.
type yline struct {
	num    int // 1-based source line
	indent int
	text   string // content with indentation and comment stripped
}

type yamlParser struct {
	lines []yline
	pos   int
}

// yamlErrf formats a decode error tagged with a source line.
func yamlErrf(line int, format string, args ...any) error {
	return fmt.Errorf("workload: yaml line %d: %s", line, fmt.Sprintf(format, args...))
}

// parseYAML decodes src into a tree of *yamlMap, []any and string nodes.
func parseYAML(src []byte) (any, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("workload: empty spec")
	}
	if lines[0].indent != 0 {
		return nil, yamlErrf(lines[0].num, "document must start at column 0")
	}
	p := &yamlParser{lines: lines}
	v, err := p.block(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, yamlErrf(p.lines[p.pos].num, "content outside the document structure")
	}
	return v, nil
}

// splitLines strips comments and blanks and computes indentation.
func splitLines(src []byte) ([]yline, error) {
	var out []yline
	for n, raw := range strings.Split(string(src), "\n") {
		line := strings.TrimRight(raw, " \r")
		if line == "" {
			continue
		}
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, yamlErrf(n+1, "tab in indentation (use spaces)")
		}
		text, err := stripComment(line[indent:], n+1)
		if err != nil {
			return nil, err
		}
		if text == "" {
			continue
		}
		if n == 0 && text == "---" {
			continue // optional document-start marker
		}
		out = append(out, yline{num: n + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing "#..." comment, respecting quotes.
func stripComment(s string, num int) (string, error) {
	var inS, inD bool
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'' && !inD:
			inS = !inS
		case s[i] == '"' && !inS:
			inD = !inD
		case s[i] == '#' && !inS && !inD && (i == 0 || s[i-1] == ' '):
			return strings.TrimRight(s[:i], " "), nil
		}
	}
	if inS || inD {
		return "", yamlErrf(num, "unterminated quote")
	}
	return s, nil
}

func (p *yamlParser) more() bool  { return p.pos < len(p.lines) }
func (p *yamlParser) cur() yline  { return p.lines[p.pos] }
func (p *yamlParser) advance()    { p.pos++ }
func (p *yamlParser) isSeq() bool { t := p.cur().text; return t == "-" || strings.HasPrefix(t, "- ") }

// block parses the run of lines at exactly this indentation as either a
// mapping or a sequence, decided by the first line.
func (p *yamlParser) block(indent int) (any, error) {
	if p.cur().indent != indent {
		return nil, yamlErrf(p.cur().num, "unexpected indentation")
	}
	if p.isSeq() {
		return p.sequence(indent)
	}
	return p.mapping(indent)
}

// mapping parses "key: value" / "key:" lines at this indentation.
func (p *yamlParser) mapping(indent int) (any, error) {
	m := newYamlMap()
	for p.more() && p.cur().indent == indent {
		line := p.cur()
		if p.isSeq() {
			return nil, yamlErrf(line.num, "sequence item in a mapping")
		}
		key, rest, err := splitKey(line.text, line.num)
		if err != nil {
			return nil, err
		}
		p.advance()
		var v any
		if rest == "" {
			if p.more() && p.cur().indent > indent {
				v, err = p.block(p.cur().indent)
				if err != nil {
					return nil, err
				}
			} else {
				return nil, yamlErrf(line.num, "key %q has no value", key)
			}
		} else {
			v, err = parseScalar(rest, line.num)
			if err != nil {
				return nil, err
			}
		}
		if !m.set(key, v) {
			return nil, yamlErrf(line.num, "duplicate key %q", key)
		}
		if p.more() && p.cur().indent > indent {
			return nil, yamlErrf(p.cur().num, "unexpected indentation")
		}
	}
	return m, nil
}

// sequence parses "- item" lines at this indentation.
func (p *yamlParser) sequence(indent int) (any, error) {
	var seq []any
	for p.more() && p.cur().indent == indent && p.isSeq() {
		line := p.cur()
		body := strings.TrimPrefix(line.text, "-")
		trimmed := strings.TrimLeft(body, " ")
		itemIndent := indent + len(line.text) - len(trimmed)
		switch {
		case trimmed == "":
			// "-" alone: the item is the following deeper block.
			p.advance()
			if !p.more() || p.cur().indent <= indent {
				return nil, yamlErrf(line.num, "empty sequence item")
			}
			v, err := p.block(p.cur().indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		case isInlineKey(trimmed):
			// "- key: value": the item is a mapping whose first entry sits
			// on the dash line; rewrite the line and parse the mapping at
			// the item's column.
			p.lines[p.pos] = yline{num: line.num, indent: itemIndent, text: trimmed}
			v, err := p.mapping(itemIndent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		default:
			v, err := parseScalar(trimmed, line.num)
			if err != nil {
				return nil, err
			}
			p.advance()
			seq = append(seq, v)
		}
		if p.more() && p.cur().indent > indent && !p.isSeq() {
			return nil, yamlErrf(p.cur().num, "unexpected indentation")
		}
	}
	if p.more() && p.cur().indent == indent && !p.isSeq() {
		return nil, yamlErrf(p.cur().num, "mapping entry in a sequence")
	}
	return seq, nil
}

// splitKey splits "key: rest" (or "key:") and validates the key spelling.
func splitKey(s string, num int) (key, rest string, err error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return "", "", yamlErrf(num, "expected \"key: value\", got %q", s)
	}
	if i+1 < len(s) && s[i+1] != ' ' {
		return "", "", yamlErrf(num, "missing space after %q:", s[:i])
	}
	key = s[:i]
	if !plainKey(key) {
		return "", "", yamlErrf(num, "invalid key %q", key)
	}
	return key, strings.TrimLeft(s[i+1:], " "), nil
}

// plainKey reports whether s is a bare identifier-style key.
func plainKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// isInlineKey reports whether a sequence-item body starts a mapping.
func isInlineKey(s string) bool {
	if s == "" || s[0] == '{' || s[0] == '[' || s[0] == '"' || s[0] == '\'' {
		return false
	}
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return false
	}
	if i+1 < len(s) && s[i+1] != ' ' {
		return false
	}
	return plainKey(s[:i])
}

// parseScalar parses an inline value: a flow mapping, a flow sequence, a
// quoted string, or a plain scalar (kept verbatim as a string).
func parseScalar(s string, num int) (any, error) {
	switch {
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, yamlErrf(num, "unterminated flow mapping %q", s)
		}
		m := newYamlMap()
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return m, nil
		}
		parts, err := splitTop(inner, num)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			key, rest, err := splitKey(strings.TrimSpace(part), num)
			if err != nil {
				return nil, err
			}
			if rest == "" {
				return nil, yamlErrf(num, "key %q has no value", key)
			}
			v, err := parseScalar(rest, num)
			if err != nil {
				return nil, err
			}
			if !m.set(key, v) {
				return nil, yamlErrf(num, "duplicate key %q", key)
			}
		}
		return m, nil
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, yamlErrf(num, "unterminated flow sequence %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		seq := []any{}
		if inner == "" {
			return seq, nil
		}
		parts, err := splitTop(inner, num)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			v, err := parseScalar(strings.TrimSpace(part), num)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
		}
		return seq, nil
	case strings.HasPrefix(s, "\""):
		out, err := strconv.Unquote(s)
		if err != nil {
			return nil, yamlErrf(num, "bad quoted string %s", s)
		}
		return out, nil
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, yamlErrf(num, "bad quoted string %s", s)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	default:
		return s, nil
	}
}

// splitTop splits a flow body on top-level commas, respecting nested
// braces, brackets and quotes.
func splitTop(s string, num int) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	var inS, inD bool
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case inS || inD:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
			if depth < 0 {
				return nil, yamlErrf(num, "unbalanced bracket in %q", s)
			}
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if depth != 0 || inS || inD {
		return nil, yamlErrf(num, "unbalanced flow value %q", s)
	}
	return append(parts, s[start:]), nil
}
