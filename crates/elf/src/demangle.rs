//! Miniature Itanium-ABI demangler.
//!
//! Symbols are matched and printed by their "pretty" (human-readable
//! base) name — the parser's known-non-returning list and the structure
//! output both use it. This is a demangler for the mangling scheme our
//! workload generator uses — a subset of the Itanium C++ ABI:
//! `_Z<len><name><param-types...>` with the common builtin type codes and
//! `P`/`K`/`R` qualifiers.
//!
//! Names that do not demangle are passed through unchanged (exactly what
//! Dyninst does for C symbols).

/// Result of demangling: the base name and the full typed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demangled {
    /// "Pretty" name: the identifier without parameters, e.g. `frobnicate`.
    pub pretty: String,
    /// Typed name: identifier plus parameter list, e.g.
    /// `frobnicate(int, char const*)`.
    pub typed: String,
}

fn builtin(c: u8) -> Option<&'static str> {
    Some(match c {
        b'v' => "void",
        b'b' => "bool",
        b'c' => "char",
        b'a' => "signed char",
        b'h' => "unsigned char",
        b's' => "short",
        b't' => "unsigned short",
        b'i' => "int",
        b'j' => "unsigned int",
        b'l' => "long",
        b'm' => "unsigned long",
        b'x' => "long long",
        b'y' => "unsigned long long",
        b'f' => "float",
        b'd' => "double",
        _ => return None,
    })
}

/// Parse one `<type>` production; returns the rendered type and bytes
/// consumed, or `None` on anything outside the subset.
fn parse_type(b: &[u8]) -> Option<(String, usize)> {
    match b.first()? {
        b'P' => {
            let (inner, n) = parse_type(&b[1..])?;
            Some((format!("{inner}*"), n + 1))
        }
        b'R' => {
            let (inner, n) = parse_type(&b[1..])?;
            Some((format!("{inner}&"), n + 1))
        }
        b'K' => {
            let (inner, n) = parse_type(&b[1..])?;
            Some((format!("{inner} const"), n + 1))
        }
        c if c.is_ascii_digit() => {
            // Class name: <len><chars>.
            let (len, used) = parse_len(b)?;
            let name = b.get(used..used + len)?;
            Some((String::from_utf8(name.to_vec()).ok()?, used + len))
        }
        &c => builtin(c).map(|t| (t.to_string(), 1)),
    }
}

fn parse_len(b: &[u8]) -> Option<(usize, usize)> {
    let digits = b.iter().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let len: usize = std::str::from_utf8(&b[..digits]).ok()?.parse().ok()?;
    Some((len, digits))
}

/// Demangle `sym` if it is a mangled name in the supported subset; returns
/// `None` for plain (C) names or unsupported manglings.
pub fn demangle(sym: &str) -> Option<Demangled> {
    let rest = sym.strip_prefix("_Z")?.as_bytes();
    let (len, used) = parse_len(rest)?;
    let name_bytes = rest.get(used..used + len)?;
    let pretty = String::from_utf8(name_bytes.to_vec()).ok()?;
    let mut at = used + len;
    let mut params: Vec<String> = Vec::new();
    while at < rest.len() {
        let (t, n) = parse_type(&rest[at..])?;
        at += n;
        params.push(t);
    }
    let typed = if params == ["void"] || params.is_empty() {
        format!("{pretty}()")
    } else {
        format!("{pretty}({})", params.join(", "))
    };
    Some(Demangled { pretty, typed })
}

/// Pretty name with pass-through for non-mangled symbols.
pub fn pretty_name(sym: &str) -> String {
    demangle(sym).map(|d| d.pretty).unwrap_or_else(|| sym.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_c_names_pass_through() {
        assert_eq!(demangle("main"), None);
        assert_eq!(pretty_name("main"), "main");
    }

    #[test]
    fn simple_function() {
        let d = demangle("_Z3fooi").unwrap();
        assert_eq!(d.pretty, "foo");
        assert_eq!(d.typed, "foo(int)");
    }

    #[test]
    fn void_parameter_list() {
        assert_eq!(demangle("_Z5startv").unwrap().typed, "start()");
    }

    #[test]
    fn multiple_params_and_qualifiers() {
        let d = demangle("_Z7processPKcmd").unwrap();
        assert_eq!(d.pretty, "process");
        assert_eq!(d.typed, "process(char const*, unsigned long, double)");
    }

    #[test]
    fn reference_and_class_types() {
        let d = demangle("_Z6handleR6Widgeti").unwrap();
        assert_eq!(d.typed, "handle(Widget&, int)");
    }

    #[test]
    fn malformed_manglings_pass_through() {
        // Bad length, truncated name, unknown type code.
        assert_eq!(demangle("_Z"), None);
        assert_eq!(demangle("_Z99x"), None);
        assert_eq!(demangle("_Z3fooQ"), None);
        assert_eq!(pretty_name("_Z3fooQ"), "_Z3fooQ");
    }

    #[test]
    fn name_with_digits_in_identifier() {
        let d = demangle("_Z8fn_00042v").unwrap();
        assert_eq!(d.pretty, "fn_00042");
        assert_eq!(d.typed, "fn_00042()");
    }
}
