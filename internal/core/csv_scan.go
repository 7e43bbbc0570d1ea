package core

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"unicode/utf8"
)

// csvScanner splits CSV input into records and fields with encoding/csv's
// grammar as a csv.Reader with FieldsPerRecord = -1 reads it:
//
//   - a record ends at '\n'; a line's trailing "\r\n" reads as "\n", a
//     trailing '\r' at EOF is dropped, and blank lines are skipped;
//   - a quoted field may hold the delimiter, `""` (one '"') and line ends;
//   - a '"' in an unquoted field is csv.ErrBareQuote, and a quoted field
//     closed by anything but a delimiter or the line end, or never closed,
//     is csv.ErrQuote, both reported as the *csv.ParseError a csv.Reader
//     returns, with whole-input line numbers and 1-based byte columns.
//
// It reads through one small buffer, carrying a partial line forward and
// growing only for a line longer than the buffer. A record materializes
// only the fields it is asked for: their bytes (unquoted, unescaped) are
// copied into one scratch slice, and every other field is only stepped
// over, its delimiters counted for the record's width.
type csvScanner struct {
	r          io.Reader
	rerr       error  // r's first error, io.EOF at the end of the input
	buf        []byte // buf[head:tail] is read but not consumed
	head, tail int
	seen       int // buf[head:head+seen] holds no '\n'

	delim    []byte // the delimiter's UTF-8 encoding
	badDelim bool   // the delimiter is one encoding/csv refuses

	line   int   // input lines read, the current one included
	offset int64 // input bytes consumed

	// The last record's materialized fields, in the order asked for: field
	// i is fields[ends[i-1]:ends[i]] (from 0 for i = 0).
	fields []byte
	ends   []int
}

// scanBufSize is the read buffer of one scanner. Larger buffers parse no
// faster here and are paid for per band: a 64 KiB buffer raised a cluster
// worker's allocation per query by 6 %.
const scanBufSize = 4 << 10

// errInvalidDelim is encoding/csv's text for a delimiter it refuses.
var errInvalidDelim = errors.New("csv: invalid field or comment delimiter")

// newCSVScanner scans r with delimiter comma (',' when 0), starting at
// input line lines: the lines before r's first byte.
func newCSVScanner(r io.Reader, comma rune, lines int) *csvScanner {
	if comma == 0 {
		comma = ','
	}
	s := &csvScanner{r: r, buf: make([]byte, scanBufSize), line: lines}
	s.badDelim = comma == '"' || comma == '\r' || comma == '\n' || !utf8.ValidRune(comma) || comma == utf8.RuneError
	if !s.badDelim {
		s.delim = utf8.AppendRune(nil, comma)
	}
	return s
}

// readLine returns the next line, its '\n' included (absent only at EOF),
// with encoding/csv's normalization: a trailing "\r\n" becomes "\n", and a
// trailing '\r' at EOF is dropped. The line is valid until the next call.
// It returns io.EOF only when no byte is left.
func (s *csvScanner) readLine() ([]byte, error) {
	s.line++
	for {
		if i := bytes.IndexByte(s.buf[s.head+s.seen:s.tail], '\n'); i >= 0 {
			end := s.head + s.seen + i + 1
			line := s.buf[s.head:end]
			s.head, s.seen = end, 0
			s.offset += int64(len(line))
			if n := len(line); n >= 2 && line[n-2] == '\r' {
				line[n-2] = '\n'
				line = line[:n-1]
			}
			return line, nil
		}
		s.seen = s.tail - s.head
		if s.rerr != nil {
			if s.rerr != io.EOF {
				return nil, s.rerr
			}
			if s.head == s.tail {
				return nil, io.EOF
			}
			line := s.buf[s.head:s.tail]
			s.head, s.seen = s.tail, 0
			s.offset += int64(len(line))
			if n := len(line); line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		}
		s.fill()
	}
}

// fill reads more input behind the unconsumed bytes, first moving them to
// the front of the buffer, and doubling it when they already fill it.
func (s *csvScanner) fill() {
	if s.head > 0 {
		s.tail = copy(s.buf, s.buf[s.head:s.tail])
		s.head = 0
	}
	if s.tail == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for range 100 { // io.Reader lets a read return neither bytes nor error
		n, err := s.r.Read(s.buf[s.tail:])
		s.tail += n
		if err != nil {
			s.rerr = err
			return
		}
		if n > 0 {
			return
		}
	}
	s.rerr = io.ErrNoProgress
}

// readRecord reads the next record and returns its field count. It
// materializes the fields whose indices sel lists (ascending, no repeats),
// or every field when sel is nil. It returns io.EOF when no record is left.
func (s *csvScanner) readRecord(sel []int) (int, error) {
	if s.badDelim {
		return 0, errInvalidDelim
	}
	var line []byte
	for {
		var err error
		if line, err = s.readLine(); err != nil {
			return 0, err
		}
		if len(line) != lengthNL(line) {
			break // a blank line is skipped
		}
	}
	s.fields, s.ends = s.fields[:0], s.ends[:0]
	if bytes.IndexByte(line, '"') >= 0 {
		return s.quotedRecord(line, sel)
	}
	// No quote: the line is the whole record, and its fields are the bytes
	// between delimiters.
	line = line[:len(line)-lengthNL(line)]
	for j, k := 0, 0; ; j++ {
		if sel != nil && k == len(sel) {
			return j + 1 + bytes.Count(line, s.delim), nil
		}
		i := s.index(line)
		if sel == nil || sel[k] == j {
			field := line
			if i >= 0 {
				field = line[:i]
			}
			s.keep(field)
			k++
		}
		if i < 0 {
			return j + 1, nil
		}
		line = line[i+len(s.delim):]
	}
}

// quotedRecord parses a record whose first line holds a '"', reading its
// continuation lines as quoted fields span them; it is encoding/csv's
// field loop, with only the fields sel lists copied out.
func (s *csvScanner) quotedRecord(line []byte, sel []int) (int, error) {
	recLine, posLine, col := s.line, s.line, 1
	for j, k := 0, 0; ; j++ {
		keep := sel == nil || k < len(sel) && sel[k] == j
		if keep {
			k++
		}
		if len(line) == 0 || line[0] != '"' {
			i := s.index(line)
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if q := bytes.IndexByte(field, '"'); q >= 0 {
				return 0, &csv.ParseError{StartLine: recLine, Line: s.line, Column: col + q, Err: csv.ErrBareQuote}
			}
			if keep {
				s.keep(field)
			}
			if i < 0 {
				return j + 1, nil
			}
			line = line[i+len(s.delim):]
			col += i + len(s.delim)
			continue
		}
		line = line[1:]
		col++
	quoted:
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				if keep {
					s.fields = append(s.fields, line[:i]...)
				}
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"': // `""` is one quote
					if keep {
						s.fields = append(s.fields, '"')
					}
					line = line[1:]
					col++
				case bytes.HasPrefix(line, s.delim):
					line = line[len(s.delim):]
					col += len(s.delim)
					break quoted
				case lengthNL(line) == len(line):
					if keep {
						s.ends = append(s.ends, len(s.fields))
					}
					return j + 1, nil
				default:
					return 0, &csv.ParseError{StartLine: recLine, Line: s.line, Column: col - 1, Err: csv.ErrQuote}
				}
			case len(line) > 0: // the field runs on past this line
				if keep {
					s.fields = append(s.fields, line...)
				}
				col += len(line)
				var err error
				if line, err = s.readLine(); err != nil && err != io.EOF {
					return 0, err
				}
				if len(line) > 0 {
					posLine++
					col = 1
				}
			default: // EOF inside the quotes
				return 0, &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
			}
		}
		if keep {
			s.ends = append(s.ends, len(s.fields))
		}
	}
}

// keep materializes field as the record's next kept field.
func (s *csvScanner) keep(field []byte) {
	s.fields = append(s.fields, field...)
	s.ends = append(s.ends, len(s.fields))
}

// index returns the offset of the first delimiter in p, or -1.
func (s *csvScanner) index(p []byte) int {
	if len(s.delim) == 1 {
		return bytes.IndexByte(p, s.delim[0])
	}
	return bytes.Index(p, s.delim)
}

// lengthNL is 1 when b ends in '\n', else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}
