package loadgen

// A YAML-subset reader and a canonical emitter, so workload specs can
// be written by hand without taking on a dependency. The subset is the
// part of YAML real specs use: block maps and lists by indentation
// (spaces only), `- ` list items that open inline maps, flow {..} and
// [..], single- and double-quoted strings, `#` comments, and plain
// scalars (null/~, true/false, integers, floats, everything else a
// string). Anchors, aliases, multi-document streams, multi-line block
// scalars, and tabs are rejected with line-numbered errors. Parsed
// trees round-trip through encoding/json into the typed Spec, so both
// YAML and JSON specs share one set of field names and one
// unknown-field check.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

type yamlLine struct {
	indent int
	text   string // content, indentation stripped, comment removed
	num    int    // 1-based source line
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseYAML reads the subset into a generic tree of
// map[string]any / []any / scalars.
func parseYAML(data []byte) (any, error) {
	p := &yamlParser{}
	for i, raw := range strings.Split(string(data), "\n") {
		num := i + 1
		if strings.HasPrefix(raw, "---") {
			rest := strings.TrimSpace(raw[3:])
			if rest == "" || strings.HasPrefix(rest, "#") {
				if p.lines != nil {
					return nil, fmt.Errorf("loadgen: yaml line %d: multi-document streams unsupported", num)
				}
				continue // leading document marker
			}
		}
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, fmt.Errorf("loadgen: yaml line %d: tab in indentation (use spaces)", num)
		}
		text := strings.TrimRight(stripComment(raw[indent:]), " \t")
		if text == "" {
			continue
		}
		if text == "..." {
			break
		}
		if strings.HasPrefix(text, "&") || strings.HasPrefix(text, "*") || strings.HasPrefix(text, "|") || strings.HasPrefix(text, ">") {
			return nil, fmt.Errorf("loadgen: yaml line %d: anchors, aliases, and block scalars unsupported", num)
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: text, num: num})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("loadgen: empty yaml document")
	}
	v, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("loadgen: yaml line %d: unexpected content %q (bad indentation?)", l.num, l.text)
	}
	return v, nil
}

// stripComment removes a trailing `# ...` comment: a '#' outside
// quotes that starts the line or follows whitespace.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

func (p *yamlParser) parseBlock(indent int) (any, error) {
	l := p.lines[p.pos]
	if l.indent != indent {
		return nil, fmt.Errorf("loadgen: yaml line %d: expected indentation %d, got %d", l.num, indent, l.indent)
	}
	if isListItem(l.text) {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func isListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func (p *yamlParser) parseList(indent int) (any, error) {
	var out []any
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || !isListItem(l.text) {
			break
		}
		if l.text == "-" {
			// The item's value is the nested block on following lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("loadgen: yaml line %d: empty list item", l.num)
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		rest := l.text[2:]
		restIndent := indent + 2 + countLeft(rest, ' ')
		rest = strings.TrimLeft(rest, " ")
		if k, _, ok := splitKey(rest); ok && k != "" {
			// `- key: ...` opens an inline map: rewrite this line as the
			// map's first entry at the remainder's column and let
			// parseMap pick up its siblings.
			p.lines[p.pos] = yamlLine{indent: restIndent, text: rest, num: l.num}
			v, err := p.parseMap(restIndent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		v, err := parseScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		p.pos++
	}
	return out, nil
}

func (p *yamlParser) parseMap(indent int) (any, error) {
	out := map[string]any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || isListItem(l.text) {
			break
		}
		key, rest, ok := splitKey(l.text)
		if !ok {
			return nil, fmt.Errorf("loadgen: yaml line %d: expected `key: value`, got %q", l.num, l.text)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("loadgen: yaml line %d: duplicate key %q", l.num, key)
		}
		p.pos++
		if rest != "" {
			v, err := parseScalar(rest, l.num)
			if err != nil {
				return nil, err
			}
			out[key] = v
			continue
		}
		// Bare `key:` — the value is a nested block (deeper indent, or a
		// list at the same indent), else null.
		if p.pos < len(p.lines) {
			next := p.lines[p.pos]
			if next.indent > indent {
				v, err := p.parseBlock(next.indent)
				if err != nil {
					return nil, err
				}
				out[key] = v
				continue
			}
			if next.indent == indent && isListItem(next.text) {
				v, err := p.parseList(indent)
				if err != nil {
					return nil, err
				}
				out[key] = v
				continue
			}
		}
		out[key] = nil
	}
	if len(out) == 0 {
		l := p.lines[p.pos-1]
		return nil, fmt.Errorf("loadgen: yaml line %d: expected a mapping", l.num)
	}
	return out, nil
}

// splitKey splits `key: value` / `key:` at the first colon outside
// quotes and flow brackets that ends the line or is followed by a
// space. The key may be quoted.
func splitKey(s string) (key, rest string, ok bool) {
	var quote byte
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0 && (i+1 == len(s) || s[i+1] == ' '):
			key = strings.TrimSpace(s[:i])
			if k, err := unquoteScalar(key); err == nil {
				key = k
			}
			return key, strings.TrimSpace(s[i+1:]), true
		}
	}
	return "", "", false
}

func countLeft(s string, c byte) int {
	n := 0
	for n < len(s) && s[n] == c {
		n++
	}
	return n
}

// unquoteScalar resolves a quoted form, or returns the input verbatim
// when unquoted.
func unquoteScalar(s string) (string, error) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return strconv.Unquote(s)
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	return s, nil
}

// parseScalar reads an inline value: a flow collection, a quoted
// string, or a plain scalar.
func parseScalar(s string, num int) (any, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
		v, rest, err := parseFlow(s, num)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("loadgen: yaml line %d: trailing content %q after flow collection", num, rest)
		}
		return v, nil
	}
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		v, err := unquoteScalar(s)
		if err != nil {
			return nil, fmt.Errorf("loadgen: yaml line %d: bad quoted string %s", num, s)
		}
		return v, nil
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return u, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// parseFlow reads a flow collection from the head of s, returning the
// unconsumed remainder.
func parseFlow(s string, num int) (any, string, error) {
	s = strings.TrimLeft(s, " ")
	switch {
	case strings.HasPrefix(s, "["):
		var out []any
		s = strings.TrimLeft(s[1:], " ")
		for {
			if s == "" {
				return nil, "", fmt.Errorf("loadgen: yaml line %d: unterminated flow list", num)
			}
			if s[0] == ']' {
				return out, s[1:], nil
			}
			v, rest, err := parseFlowValue(s, num)
			if err != nil {
				return nil, "", err
			}
			out = append(out, v)
			s = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(s, ",") {
				s = strings.TrimLeft(s[1:], " ")
			} else if !strings.HasPrefix(s, "]") {
				return nil, "", fmt.Errorf("loadgen: yaml line %d: expected , or ] in flow list near %q", num, s)
			}
		}
	case strings.HasPrefix(s, "{"):
		out := map[string]any{}
		s = strings.TrimLeft(s[1:], " ")
		for {
			if s == "" {
				return nil, "", fmt.Errorf("loadgen: yaml line %d: unterminated flow map", num)
			}
			if s[0] == '}' {
				return out, s[1:], nil
			}
			colon := flowKeyEnd(s)
			if colon < 0 {
				return nil, "", fmt.Errorf("loadgen: yaml line %d: expected `key: value` in flow map near %q", num, s)
			}
			key := strings.TrimSpace(s[:colon])
			if k, err := unquoteScalar(key); err == nil {
				key = k
			}
			if _, dup := out[key]; dup {
				return nil, "", fmt.Errorf("loadgen: yaml line %d: duplicate key %q", num, key)
			}
			v, rest, err := parseFlowValue(strings.TrimLeft(s[colon+1:], " "), num)
			if err != nil {
				return nil, "", err
			}
			out[key] = v
			s = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(s, ",") {
				s = strings.TrimLeft(s[1:], " ")
			} else if !strings.HasPrefix(s, "}") {
				return nil, "", fmt.Errorf("loadgen: yaml line %d: expected , or } in flow map near %q", num, s)
			}
		}
	}
	return nil, "", fmt.Errorf("loadgen: yaml line %d: expected flow collection near %q", num, s)
}

// flowKeyEnd finds the colon ending a flow-map key, honoring quotes.
func flowKeyEnd(s string) int {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ':':
			return i
		case c == ',' || c == '}' || c == ']':
			return -1
		}
	}
	return -1
}

// parseFlowValue reads one value inside a flow collection: a nested
// flow, a quoted string, or a plain scalar ending at , ] or }.
func parseFlowValue(s string, num int) (any, string, error) {
	if strings.HasPrefix(s, "[") || strings.HasPrefix(s, "{") {
		return parseFlow(s, num)
	}
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		quote := s[0]
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' && quote == '"' {
				i++
				continue
			}
			if s[i] == quote {
				if quote == '\'' && i+1 < len(s) && s[i+1] == '\'' {
					i++ // escaped '' inside single quotes
					continue
				}
				v, err := unquoteScalar(s[:i+1])
				if err != nil {
					return nil, "", fmt.Errorf("loadgen: yaml line %d: bad quoted string %q", num, s[:i+1])
				}
				return v, s[i+1:], nil
			}
		}
		return nil, "", fmt.Errorf("loadgen: yaml line %d: unterminated string %q", num, s)
	}
	end := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == ']' || s[i] == '}' {
			end = i
			break
		}
	}
	v, err := parseScalar(s[:end], num)
	if err != nil {
		return nil, "", err
	}
	return v, s[end:], nil
}

// EncodeYAML renders a spec in the canonical block form the parser
// reads back: fields in declaration order, zero-valued optional knobs
// omitted — the emitter behind brb-load -print-spec, and the inverse
// of ParseSpec for every normalized spec. It knows no field: it walks
// the token stream of json.Marshal(s), so the struct tags that define
// the JSON form define the YAML form too.
func EncodeYAML(s *Spec) string {
	data, err := json.Marshal(s)
	if err != nil {
		panic("loadgen: spec does not marshal: " + err.Error()) // every field is a number, a string or a Duration
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keep uint64 seeds exact
	open, _ := dec.Token()
	return string(appendYAMLBlock(nil, dec, open.(json.Delim), 0))
}

// appendYAMLBlock renders the rest of the JSON object or array whose
// opening delimiter was just read, one entry per line at indent. Token
// errors cannot occur: the stream is json.Marshal's own output.
func appendYAMLBlock(out []byte, dec *json.Decoder, open json.Delim, indent int) []byte {
	for dec.More() {
		line := len(out)
		out = append(out, strings.Repeat(" ", indent)...)
		if open == '{' {
			key, _ := dec.Token()
			out = append(out, yamlScalar(key.(string))+":"...)
		} else {
			out = append(out, '-')
		}
		head := len(out)
		switch v, _ := dec.Token(); v := v.(type) {
		case json.Delim:
			if open == '[' && v == '{' {
				// A map in a list opens on the dash's line: render it two
				// columns in and overwrite its first indent with the dash.
				out = appendYAMLBlock(out[:line], dec, v, indent+2)
				if len(out) > line {
					out[line+indent] = '-'
				}
				continue
			}
			out = appendYAMLBlock(append(out, '\n'), dec, v, indent+2)
			if len(out) == head+1 {
				out = out[:line] // an empty map or list: omit its key
			}
		case string:
			out = append(out, " "+yamlScalar(v)+"\n"...)
		case nil:
			out = append(out, " null\n"...)
		default: // json.Number, bool
			out = append(out, fmt.Sprintf(" %v\n", v)...)
		}
	}
	_, _ = dec.Token() // the closing delimiter
	return out
}

// yamlScalar renders a string, quoting when the plain form would parse
// back as something else.
func yamlScalar(s string) string {
	if s == "" {
		return `""`
	}
	plain := true
	for _, r := range s {
		if r < ' ' || r > '~' || strings.ContainsRune(`:#{}[],"'`, r) {
			plain = false
			break
		}
	}
	if plain {
		if v, err := parseScalar(s, 0); err == nil {
			if str, ok := v.(string); ok && str == s && !strings.HasPrefix(s, "-") && !strings.HasPrefix(s, " ") && !strings.HasSuffix(s, " ") {
				return s
			}
		}
	}
	return strconv.Quote(s)
}
