package export

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/geom"
)

// The member names of the objects ReadInstance reads, spelled as the json
// tags of core.Instance, core.Request and geom.Point spell them.
var (
	instanceMembers = []string{"depot", "requests", "gamma", "speed", "k"}
	requestMembers  = []string{"pos", "duration", "lifetime"}
	pointMembers    = []string{"x", "y"}
)

// maxDepth is encoding/json's nesting limit, which bounds the recursion
// of the value syntax check.
const maxDepth = 10000

// ReadInstance decodes data, one JSON value, into in without reflection:
// the inverse of WriteInstance, and the /v1/plan body reader. It accepts
// exactly the bodies encoding/json's Decoder accepts into a core.Instance
// with DisallowUnknownFields and nothing but whitespace after the value,
// and decodes them to the same values: member names match as
// encoding/json matches field names (exactly, else under its case
// folding), null leaves a value as it is, and every number converts to
// the float64 or int encoding/json's strconv calls give. One deliberate
// narrowing: a member repeated within one object is an error, where
// encoding/json would merge the two values.
//
// Top-level members named in extra (lower-case ASCII, at most 59 names)
// are not instance members: ReadInstance hands each one to visit with
// the index of its name in extra and its syntax-checked value bytes.
// It returns the number of instance members it decoded.
func ReadInstance(data []byte, in *core.Instance, extra []string, visit func(member int, raw []byte) error) (int, error) {
	r := reader{data: data}
	names := instanceMembers
	if len(extra) > 0 {
		names = append(names[:len(names):len(names)], extra...)
	}
	members := 0
	err := r.object("instance", names, func(i int) error {
		if i < len(instanceMembers) {
			members++
			return r.instanceMember(in, i)
		}
		r.ws()
		start := r.pos
		if err := r.value(1); err != nil {
			return err
		}
		return visit(i-len(instanceMembers), r.data[start:r.pos])
	})
	if err == nil {
		r.ws()
		if r.pos < len(r.data) {
			err = r.syntax("after top-level value")
		}
	}
	return members, err
}

// reader is a cursor over one JSON document.
type reader struct {
	data []byte
	pos  int
	name []byte // reused buffer for member names that hold escapes or non-ASCII bytes
}

func (r *reader) instanceMember(in *core.Instance, i int) error {
	switch i {
	case 0:
		return r.point("depot", &in.Depot)
	case 1:
		return r.requests(&in.Requests)
	case 2:
		return r.float("gamma", &in.Gamma)
	case 3:
		return r.float("speed", &in.Speed)
	default:
		return r.int("k", &in.K)
	}
}

func (r *reader) point(what string, p *geom.Point) error {
	return r.object(what, pointMembers, func(i int) error {
		if i == 0 {
			return r.float("x", &p.X)
		}
		return r.float("y", &p.Y)
	})
}

func (r *reader) requests(dst *[]core.Request) error {
	r.ws()
	if r.peek() != '[' {
		if r.literal("null") {
			*dst = nil
			return nil
		}
		return r.typeError("requests", "[]core.Request")
	}
	r.pos++
	// Room for one request per 128 bytes of what is left: WriteInstance
	// writes about 174 bytes per generated request and json.Marshal about
	// 112, so the slice regrows at most once. "[]" decodes to an empty,
	// non-nil slice.
	reqs := make([]core.Request, 0, (len(r.data)-r.pos)/128)
	r.ws()
	if r.peek() == ']' {
		r.pos++
		*dst = reqs
		return nil
	}
	for {
		reqs = append(reqs, core.Request{})
		q := &reqs[len(reqs)-1]
		err := r.object("request", requestMembers, func(i int) error {
			switch i {
			case 0:
				return r.point("pos", &q.Pos)
			case 1:
				return r.float("duration", &q.Duration)
			default:
				return r.float("lifetime", &q.Lifetime)
			}
		})
		if err != nil {
			return err
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			*dst = reqs
			return nil
		default:
			return r.syntax("after array element")
		}
	}
}

// object reads the object, or null, at the cursor. Each member name must
// select one of names, at most once; set reads the value of names[i].
func (r *reader) object(what string, names []string, set func(i int) error) error {
	r.ws()
	if r.peek() != '{' {
		if r.literal("null") {
			return nil
		}
		return r.typeError(what, "object")
	}
	r.pos++
	var seen uint64
	r.ws()
	if r.peek() == '}' {
		r.pos++
		return nil
	}
	for {
		r.ws()
		if r.peek() != '"' {
			return r.syntax("looking for beginning of object key string")
		}
		name, plain, err := r.str()
		if err != nil {
			return err
		}
		if !plain {
			r.name = unquote(r.name[:0], name)
			name = r.name
		}
		i := field(name, names)
		if i < 0 {
			return fmt.Errorf("json: unknown field %q in %s", name, what)
		}
		if seen&(1<<i) != 0 {
			return fmt.Errorf("json: field %q repeated in %s", name, what)
		}
		seen |= 1 << i
		r.ws()
		if r.peek() != ':' {
			return r.syntax("after object key")
		}
		r.pos++
		if err := set(i); err != nil {
			return err
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return nil
		default:
			return r.syntax("after object key:value pair")
		}
	}
}

func (r *reader) float(member string, dst *float64) error {
	num, err := r.number(member, "float64")
	if err != nil || num == nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into %q of type float64", num, member)
	}
	*dst = f
	return nil
}

func (r *reader) int(member string, dst *int) error {
	num, err := r.number(member, "int")
	if err != nil || num == nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		return fmt.Errorf("json: cannot unmarshal number %s into %q of type int", num, member)
	}
	*dst = int(n)
	return nil
}

// number reads the number, or null, at the cursor and returns its bytes
// (nil for null). Any other value is an error naming member and its type
// typ.
func (r *reader) number(member, typ string) ([]byte, error) {
	r.ws()
	if c := r.peek(); c != '-' && !isDigit(c) {
		if r.literal("null") {
			return nil, nil
		}
		return nil, r.typeError(member, typ)
	}
	start := r.pos
	if err := r.scanNumber(); err != nil {
		return nil, err
	}
	return r.data[start:r.pos], nil
}

// scanNumber moves the cursor past the JSON number grammar's
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (r *reader) scanNumber() error {
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		r.pos = i
		return r.syntax("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			r.pos = i
			return r.syntax("after decimal point in numeric literal")
		}
		i = skipDigits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			r.pos = i
			return r.syntax("in exponent of numeric literal")
		}
		i = skipDigits(d, i)
	}
	r.pos = i
	return nil
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str reads the string at the cursor and returns the bytes between its
// quotes; plain reports that they hold no escape and no byte outside
// ASCII, so they are already the decoded string.
func (r *reader) str() (raw []byte, plain bool, err error) {
	d := r.data
	start := r.pos + 1
	plain = true
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			return d[start:i], plain, nil
		case c == '\\':
			plain = false
			r.pos = i + 1
			switch r.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for r.pos = i + 2; r.pos < i+6; r.pos++ {
					if !isHex(r.peek()) {
						return nil, false, r.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				return nil, false, r.syntax("in string escape code")
			}
		case c < ' ':
			r.pos = i
			return nil, false, r.syntax("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	r.pos = len(d)
	return nil, false, r.syntax("in string literal")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// value moves the cursor past one JSON value of any shape, checking its
// syntax; depth counts the arrays and objects around it.
func (r *reader) value(depth int) error {
	if depth > maxDepth {
		return errors.New("json: exceeded max depth")
	}
	r.ws()
	switch c := r.peek(); c {
	case '{', '[':
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		r.pos++
		r.ws()
		if r.peek() == end {
			r.pos++
			return nil
		}
		for {
			if c == '{' {
				r.ws()
				if r.peek() != '"' {
					return r.syntax("looking for beginning of object key string")
				}
				if _, _, err := r.str(); err != nil {
					return err
				}
				r.ws()
				if r.peek() != ':' {
					return r.syntax("after object key")
				}
				r.pos++
			}
			if err := r.value(depth + 1); err != nil {
				return err
			}
			r.ws()
			switch r.peek() {
			case ',':
				r.pos++
			case end:
				r.pos++
				return nil
			default:
				return r.syntax("after value in object or array")
			}
		}
	case '"':
		_, _, err := r.str()
		return err
	case 't', 'f', 'n':
		if r.literal("true") || r.literal("false") || r.literal("null") {
			return nil
		}
		return r.syntax("in literal")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return r.scanNumber()
	default:
		return r.syntax("looking for beginning of value")
	}
}

func (r *reader) ws() {
	d, i := r.data, r.pos
	for i < len(d) && (d[i] == ' ' || d[i] == '\n' || d[i] == '\t' || d[i] == '\r') {
		i++
	}
	r.pos = i
}

// peek returns the byte at the cursor, or 0 (never valid JSON) at the end.
func (r *reader) peek() byte {
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// literal consumes lit if the input continues with it.
func (r *reader) literal(lit string) bool {
	if len(r.data)-r.pos >= len(lit) && string(r.data[r.pos:r.pos+len(lit)]) == lit {
		r.pos += len(lit)
		return true
	}
	return false
}

func (r *reader) syntax(context string) error {
	if r.pos >= len(r.data) {
		return errors.New("json: unexpected end of JSON input")
	}
	return fmt.Errorf("json: invalid character %q %s at offset %d", r.data[r.pos:r.pos+1], context, r.pos)
}

// typeError reports the value at the cursor as one that member, of type
// typ, cannot hold.
func (r *reader) typeError(member, typ string) error {
	var found string
	switch r.peek() {
	case '"':
		found = "string"
	case '{':
		found = "object"
	case '[':
		found = "array"
	case 't', 'f':
		found = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		found = "number"
	default:
		return r.syntax("looking for beginning of value")
	}
	return fmt.Errorf("json: cannot unmarshal %s into %q of type %s at offset %d", found, member, typ, r.pos)
}

// field returns the index in names of the member name selects, or -1:
// as encoding/json matches a member name to a field, an exact match, else
// one under its folding (ASCII letters to upper case, any other rune to
// the smallest rune of its Unicode simple-folding orbit). names are
// lower-case ASCII.
func field(name []byte, names []string) int {
	for i, n := range names {
		if string(name) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(name, n) {
			return i
		}
	}
	return -1
}

func foldEqual(name []byte, want string) bool {
	j := 0
	for i := 0; i < len(name); j++ {
		r, size := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(name[i:])
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		i += size
		w := rune(0)
		if j < len(want) {
			w = rune(want[j])
			if 'a' <= w && w <= 'z' {
				w -= 'a' - 'A'
			}
		}
		if r != w || w == 0 {
			return false
		}
	}
	return j == len(want)
}

// foldRune returns the smallest rune of r's simple-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unquote appends the decoded contents of a syntax-checked JSON string to
// dst, with invalid UTF-8 and surrogate escapes as U+FFFD.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r := getu4(s[i:])
			if utf16.IsSurrogate(r) {
				// encoding/json pairs surrogates, but a supplementary rune
				// folds to no ASCII letter either, so the name matches no
				// member either way.
				r = unicode.ReplacementChar
			}
			dst = utf8.AppendRune(dst, r)
			i += 6
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			default: // '"', '\\' or '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// getu4 decodes the syntax-checked \uXXXX escape at the start of s.
func getu4(s []byte) rune {
	n, _ := strconv.ParseUint(string(s[2:6]), 16, 32)
	return rune(n)
}
