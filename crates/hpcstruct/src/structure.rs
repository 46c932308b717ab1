//! The recovered program structure ("structure file").
//!
//! Mirrors hpcstruct's output document: a load module containing
//! functions; functions containing loops, statement (line) ranges and
//! inlined scopes. The serialization is a simple indented text format,
//! stable and diffable. One layout produces it, written once against a
//! byte sink that either counts or writes, with every address and number
//! formatted by hand: [`StructFile::to_text`] counts each function's
//! bytes, then writes each into its own slice of one buffer of exactly
//! the document's size; [`FuncStruct::write_text`] writes one function.

use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::Arc;

/// A loop within a function.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct LoopStruct {
    /// Header block start address.
    pub header: u64,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Number of member blocks.
    pub blocks: usize,
}

/// A contiguous address range attributed to one source line.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct StmtRange {
    /// First address.
    pub lo: u64,
    /// One past the last address.
    pub hi: u64,
    /// Source file name, shared by every range and scope that names the
    /// same file.
    pub file: Arc<str>,
    /// 1-based line.
    pub line: u32,
}

/// An inlined call scope (AC4).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct InlineScope {
    /// Name of the inlined function.
    pub name: String,
    /// Covered range.
    pub lo: u64,
    /// End of covered range.
    pub hi: u64,
    /// Call-site file, shared like [`StmtRange::file`].
    pub call_file: Arc<str>,
    /// Call-site line.
    pub call_line: u32,
    /// Nested inline scopes.
    pub children: Vec<InlineScope>,
}

/// Structure recovered for one function.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct FuncStruct {
    /// Demangled (pretty) name.
    pub name: String,
    /// Entry address.
    pub entry: u64,
    /// Covered `[lo, hi)` ranges.
    pub ranges: Vec<(u64, u64)>,
    /// Maximum stack-frame extent in bytes (from the dataflow engine's
    /// stack-height analysis), when the analysis bounds it.
    pub frame_bytes: Option<i64>,
    /// Loops, outermost first.
    pub loops: Vec<LoopStruct>,
    /// Statement ranges, address-sorted.
    pub stmts: Vec<StmtRange>,
    /// Inlined scopes.
    pub inlines: Vec<InlineScope>,
}

/// A complete structure file.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct StructFile {
    /// Load-module name.
    pub load_module: String,
    /// Functions sorted by entry address.
    pub functions: Vec<FuncStruct>,
}

/// The distinct shared file names a structure holds, so that each one's
/// heap counts once however many ranges and scopes name it.
#[derive(Default)]
struct SharedNames {
    seen: HashSet<*const u8>,
    /// The last name counted: consecutive ranges mostly share a file.
    last: Option<*const u8>,
}

impl SharedNames {
    /// Heap bytes of `name` if not counted yet: the `Arc`'s two counts
    /// plus the text.
    fn bytes(&mut self, name: &Arc<str>) -> usize {
        let p = name.as_ptr();
        if self.last.replace(p) == Some(p) || !self.seen.insert(p) {
            return 0;
        }
        2 * std::mem::size_of::<usize>() + name.len()
    }

    fn inline_bytes(&mut self, scope: &InlineScope) -> usize {
        scope.name.capacity()
            + self.bytes(&scope.call_file)
            + scope.children.capacity() * std::mem::size_of::<InlineScope>()
            + scope.children.iter().map(|c| self.inline_bytes(c)).sum::<usize>()
    }
}

impl StructFile {
    /// Bytes of heap the recovered structure pins (the resident-size
    /// estimate a memoizing session sums), each shared file name once.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut names = SharedNames::default();
        self.load_module.capacity()
            + self.functions.capacity() * size_of::<FuncStruct>()
            + self
                .functions
                .iter()
                .map(|f| {
                    f.name.capacity()
                        + f.ranges.capacity() * size_of::<(u64, u64)>()
                        + f.loops.capacity() * size_of::<LoopStruct>()
                        + f.stmts.capacity() * size_of::<StmtRange>()
                        + f.stmts.iter().map(|s| names.bytes(&s.file)).sum::<usize>()
                        + f.inlines.capacity() * size_of::<InlineScope>()
                        + f.inlines.iter().map(|i| names.inline_bytes(i)).sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Where the text layout goes: a byte count, to size the buffer, or the
/// buffer itself. The layout is written once, against this trait, so
/// the count cannot drift from the text.
trait Sink {
    /// Append `s` verbatim.
    fn put(&mut self, s: &str);
    /// Append `v` as `{:#x}` does: `0x`, then lowercase digits without
    /// leading zeros.
    fn hex(&mut self, v: u64);
    /// Append `v` in decimal.
    fn dec(&mut self, v: u64);
    /// Append `v` in decimal, with a `-` if negative.
    fn signed(&mut self, v: i64) {
        if v < 0 {
            self.put("-");
        }
        self.dec(v.unsigned_abs());
    }
}

fn hex_digits(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(4) as usize
}

fn dec_digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Counts the bytes the layout writes.
impl Sink for usize {
    fn put(&mut self, s: &str) {
        *self += s.len();
    }
    fn hex(&mut self, v: u64) {
        *self += 2 + hex_digits(v);
    }
    fn dec(&mut self, v: u64) {
        *self += dec_digits(v);
    }
}

/// Writes the layout into a slice its count sized, front to back;
/// numbers are written digit by digit from their last byte.
struct Bytes<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl<'a> Bytes<'a> {
    fn new(buf: &'a mut [u8]) -> Bytes<'a> {
        Bytes { buf, at: 0 }
    }

    /// The next `n` bytes, consumed.
    fn take(&mut self, n: usize) -> &mut [u8] {
        let at = self.at;
        self.at += n;
        &mut self.buf[at..at + n]
    }
}

impl Sink for Bytes<'_> {
    fn put(&mut self, s: &str) {
        self.take(s.len()).copy_from_slice(s.as_bytes());
    }
    fn hex(&mut self, mut v: u64) {
        self.put("0x");
        for b in self.take(hex_digits(v)).iter_mut().rev() {
            *b = b"0123456789abcdef"[(v & 0xf) as usize];
            v >>= 4;
        }
    }
    fn dec(&mut self, mut v: u64) {
        for b in self.take(dec_digits(v)).iter_mut().rev() {
            *b = b'0' + (v % 10) as u8;
            v /= 10;
        }
    }
}

impl InlineScope {
    fn write(&self, out: &mut impl Sink, indent: usize) {
        for _ in 0..indent {
            out.put("  ");
        }
        out.put("<A n=\"");
        out.put(&self.name);
        out.put("\" lo=\"");
        out.hex(self.lo);
        out.put("\" hi=\"");
        out.hex(self.hi);
        out.put("\" f=\"");
        out.put(&self.call_file);
        out.put("\" l=\"");
        out.dec(self.call_line.into());
        out.put("\">\n");
        for c in &self.children {
            c.write(out, indent + 1);
        }
        for _ in 0..indent {
            out.put("  ");
        }
        out.put("</A>\n");
    }
}

impl FuncStruct {
    /// Append this function's subtree to `out`, as it appears in the
    /// structure file.
    pub fn write_text(&self, out: &mut String) {
        let mut text = vec![0; self.text_len()];
        self.write(&mut Bytes::new(&mut text));
        out.push_str(std::str::from_utf8(&text).expect("the layout writes whole strings"));
    }

    fn text_len(&self) -> usize {
        let mut len = 0;
        self.write(&mut len);
        len
    }

    fn write(&self, out: &mut impl Sink) {
        out.put("  <F n=\"");
        out.put(&self.name);
        out.put("\" entry=\"");
        out.hex(self.entry);
        out.put("\" v=\"");
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                out.put(",");
            }
            out.hex(lo);
            out.put("-");
            out.hex(hi);
        }
        out.put("\"");
        if let Some(n) = self.frame_bytes {
            out.put(" frame=\"");
            out.signed(n);
            out.put("\"");
        }
        out.put(">\n");
        for l in &self.loops {
            out.put("    <L head=\"");
            out.hex(l.header);
            out.put("\" depth=\"");
            out.dec(l.depth.into());
            out.put("\" blocks=\"");
            out.dec(l.blocks as u64);
            out.put("\"/>\n");
        }
        for s in &self.stmts {
            out.put("    <S lo=\"");
            out.hex(s.lo);
            out.put("\" hi=\"");
            out.hex(s.hi);
            out.put("\" f=\"");
            out.put(&s.file);
            out.put("\" l=\"");
            out.dec(s.line.into());
            out.put("\"/>\n");
        }
        for i in &self.inlines {
            i.write(out, 2);
        }
        out.put("  </F>\n");
    }
}

impl StructFile {
    /// Serialize the full document into one buffer of exactly its size.
    /// Each function's text is counted, then written into its own slice
    /// of the buffer, both in parallel on the current rayon pool.
    pub fn to_text(&self) -> String {
        let head = ["<LM n=\"", self.load_module.as_str(), "\">\n"];
        const TAIL: &str = "</LM>\n";
        let lens: Vec<usize> = self.functions.par_iter().map(|f| f.text_len()).collect();
        let head_len: usize = head.iter().map(|s| s.len()).sum();
        let mut text = vec![0; head_len + lens.iter().sum::<usize>() + TAIL.len()];
        let (first, mut rest) = text.split_at_mut(head_len);
        let mut out = Bytes::new(first);
        head.iter().for_each(|s| out.put(s));
        let mut parts = Vec::with_capacity(self.functions.len());
        for (f, &len) in self.functions.iter().zip(&lens) {
            let (part, after) = std::mem::take(&mut rest).split_at_mut(len);
            parts.push((f, part));
            rest = after;
        }
        rest.copy_from_slice(TAIL.as_bytes());
        parts.into_par_iter().for_each(|(f, part)| {
            let mut out = Bytes::new(part);
            f.write(&mut out);
            debug_assert_eq!(out.at, out.buf.len(), "the count and the text follow one layout");
        });
        String::from_utf8(text).expect("the layout writes whole strings")
    }

    /// Total statement count (reporting).
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(|f| f.stmts.len()).sum()
    }

    /// Total loop count.
    pub fn loop_count(&self) -> usize {
        self.functions.iter().map(|f| f.loops.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StructFile {
        let file: Arc<str> = "m.c".into();
        StructFile {
            load_module: "a.out".into(),
            functions: vec![FuncStruct {
                name: "main".into(),
                entry: 0x401000,
                ranges: vec![(0x401000, 0x401080)],
                frame_bytes: Some(0x28),
                loops: vec![LoopStruct { header: 0x401020, depth: 1, blocks: 3 }],
                stmts: vec![StmtRange { lo: 0x401000, hi: 0x401008, file: file.clone(), line: 3 }],
                inlines: vec![InlineScope {
                    name: "helper".into(),
                    lo: 0x401010,
                    hi: 0x401030,
                    call_file: file,
                    call_line: 5,
                    children: vec![],
                }],
            }],
        }
    }

    #[test]
    fn serialization_contains_all_elements() {
        let text = sample().to_text();
        assert!(text.contains("<LM n=\"a.out\">"));
        assert!(text.contains("<F n=\"main\""));
        assert!(text.contains("frame=\"40\""));
        assert!(text.contains("<L head=\"0x401020\" depth=\"1\""));
        assert!(text.contains("<S lo=\"0x401000\""));
        assert!(text.contains("<A n=\"helper\""));
        assert!(text.ends_with("</LM>\n"));
    }

    /// Every field kind at its edges — zero, `u64::MAX`, a negative and
    /// an absent frame, several ranges, nested inline scopes — written
    /// exactly as the `format!` layout the writer replaced.
    #[test]
    fn text_matches_the_layout_byte_for_byte() {
        let file: Arc<str> = "d/x.h".into();
        let mut s = sample();
        s.functions.push(FuncStruct {
            name: "ns::f<int>".into(),
            entry: 0,
            ranges: vec![(0, 0x10), (u64::MAX - 1, u64::MAX)],
            frame_bytes: Some(-8),
            loops: vec![LoopStruct { header: 0xf, depth: 10, blocks: 0 }],
            stmts: vec![StmtRange { lo: 0x10, hi: 0x100, file: file.clone(), line: 0 }],
            inlines: vec![InlineScope {
                name: "outer".into(),
                lo: 0,
                hi: 1,
                call_file: file.clone(),
                call_line: u32::MAX,
                children: vec![InlineScope {
                    name: "inner".into(),
                    lo: 0x99,
                    hi: 0x100,
                    call_file: file,
                    call_line: 9,
                    children: vec![],
                }],
            }],
        });
        s.functions.push(FuncStruct {
            name: "g".into(),
            entry: 0xabc,
            ranges: vec![],
            frame_bytes: None,
            loops: vec![],
            stmts: vec![],
            inlines: vec![],
        });
        let want = concat!(
            "<LM n=\"a.out\">\n",
            "  <F n=\"main\" entry=\"0x401000\" v=\"0x401000-0x401080\" frame=\"40\">\n",
            "    <L head=\"0x401020\" depth=\"1\" blocks=\"3\"/>\n",
            "    <S lo=\"0x401000\" hi=\"0x401008\" f=\"m.c\" l=\"3\"/>\n",
            "    <A n=\"helper\" lo=\"0x401010\" hi=\"0x401030\" f=\"m.c\" l=\"5\">\n",
            "    </A>\n",
            "  </F>\n",
            "  <F n=\"ns::f<int>\" entry=\"0x0\" ",
            "v=\"0x0-0x10,0xfffffffffffffffe-0xffffffffffffffff\" frame=\"-8\">\n",
            "    <L head=\"0xf\" depth=\"10\" blocks=\"0\"/>\n",
            "    <S lo=\"0x10\" hi=\"0x100\" f=\"d/x.h\" l=\"0\"/>\n",
            "    <A n=\"outer\" lo=\"0x0\" hi=\"0x1\" f=\"d/x.h\" l=\"4294967295\">\n",
            "      <A n=\"inner\" lo=\"0x99\" hi=\"0x100\" f=\"d/x.h\" l=\"9\">\n",
            "      </A>\n",
            "    </A>\n",
            "  </F>\n",
            "  <F n=\"g\" entry=\"0xabc\" v=\"\">\n",
            "  </F>\n",
            "</LM>\n",
        );
        let text = s.to_text();
        assert_eq!(text, want);
        assert_eq!(text.capacity(), text.len(), "sized exactly");
        let mut one = String::from("<LM>");
        s.functions[1].write_text(&mut one);
        assert_eq!(
            one,
            format!(
                "<LM>{}",
                &want[want.find("  <F n=\"ns").unwrap()..want.find("  <F n=\"g\"").unwrap()]
            )
        );
    }

    /// A file name shared by several ranges and scopes counts once; the
    /// same text in a second allocation counts again.
    #[test]
    fn heap_counts_each_shared_name_once() {
        let shared = sample();
        let mut apart = sample();
        apart.functions[0].inlines[0].call_file = "m.c".into();
        let name = 2 * std::mem::size_of::<usize>() + "m.c".len();
        assert_eq!(apart.heap_bytes(), shared.heap_bytes() + name);
    }

    #[test]
    fn counts() {
        let s = sample();
        assert_eq!(s.stmt_count(), 1);
        assert_eq!(s.loop_count(), 1);
    }
}
