//! Error-tolerant recursive-descent parser for the C/C++/CUDA subset.
//!
//! Industrial C++ cannot be fully parsed without a complete compiler
//! front-end; like Lizard and similar analysis tools, this parser accepts
//! the common shapes of declarations, statements, and expressions, and on
//! anything it cannot understand it *recovers*: it skips to a
//! synchronisation point (`;` or a balanced `}`) and records an `Opaque`
//! node. It never panics and never rejects input.

use crate::ast::*;
use crate::lexer::{lex, octal_literals};
use crate::preprocess::preprocess;
use crate::source::{FileId, Span};
use crate::token::{Kw, Punct, Token, TokenKind};
use std::collections::HashSet;

/// Output of [`parse_source`].
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// The syntax tree, with the macro definitions and octal literals
    /// harvested before parsing.
    pub unit: TranslationUnit,
}

/// Preprocesses, lexes, and parses `src` as the contents of `file`.
pub fn parse_source(file: FileId, src: &str) -> ParsedFile {
    let _sp = adsafe_trace::span("parse.unit", "parse");
    let pre = {
        let _s = adsafe_trace::span("parse.preprocess", "parse");
        preprocess(file, src)
    };
    let (toks, octal_literals) = {
        let _s = adsafe_trace::span("parse.lex", "parse");
        let toks = lex(file, &pre.text);
        let octal = octal_literals(&pre.text, &toks);
        (toks, octal)
    };
    adsafe_trace::counter("parse.lexer.tokens").add(toks.len() as u64);
    let mut unit = {
        let _s = adsafe_trace::span("parse.syntax", "parse");
        Parser::new(file, &pre.text, &toks).parse_unit()
    };
    unit.octal_literals = octal_literals;
    unit.macros = pre.info.macros;
    if unit.recovery_count > 0 {
        adsafe_trace::counter("parse.parser.resyncs").add(unit.recovery_count as u64);
    }
    ParsedFile { unit }
}

/// Common type names assumed known even without a typedef in scope, so the
/// declaration/expression heuristic behaves on real-world code.
const WELL_KNOWN_TYPES: &[&str] = &[
    "size_t",
    "ssize_t",
    "ptrdiff_t",
    "intptr_t",
    "uintptr_t",
    "int8_t",
    "uint8_t",
    "int16_t",
    "uint16_t",
    "int32_t",
    "uint32_t",
    "int64_t",
    "uint64_t",
    "FILE",
    "string",
    "wchar_t",
    "cudaError_t",
    "cudaStream_t",
    "cudaEvent_t",
    "dim3",
    "float2",
    "float3",
    "float4",
    "int2",
    "int3",
    "int4",
    "uchar4",
];

struct Parser<'a> {
    file: FileId,
    src: &'a str,
    toks: &'a [Token],
    pos: usize,
    type_names: HashSet<String>,
    recovery_count: usize,
    namespace_stack: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(file: FileId, src: &'a str, toks: &'a [Token]) -> Self {
        Parser {
            file,
            src,
            toks,
            pos: 0,
            type_names: WELL_KNOWN_TYPES.iter().map(|s| s.to_string()).collect(),
            recovery_count: 0,
            namespace_stack: Vec::new(),
        }
    }

    // ---- token helpers --------------------------------------------------

    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn bump(&mut self) -> Token {
        let t = *self.peek();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn text(&self, t: &Token) -> &'a str {
        &self.src[t.span.start as usize..t.span.end as usize]
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if self.peek().is_kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn span_here(&self) -> Span {
        self.peek().span
    }

    fn span_from(&self, start: Span) -> Span {
        let prev = if self.pos > 0 {
            self.toks[self.pos - 1].span
        } else {
            start
        };
        if prev.end >= start.start {
            Span::new(self.file, start.start, prev.end.max(start.start))
        } else {
            start
        }
    }

    /// Skips ahead to a likely recovery point: past the next `;`, or past a
    /// balanced `}` region if one opens first. Records the recovery.
    fn recover(&mut self) -> Span {
        self.recovery_count += 1;
        let start = self.span_here();
        let mut depth = 0usize;
        let mut consumed = 0usize;
        while !self.at_eof() {
            // Stop (without consuming) at a plausible fresh declaration
            // start, so one garbage region does not swallow healthy code.
            if depth == 0 && consumed > 0 {
                let t = self.peek();
                let decl_start = match t.kind {
                    TokenKind::Keyword(k) => {
                        k.is_type_keyword()
                            || k.is_cuda_qualifier()
                            || matches!(
                                k,
                                Kw::Namespace
                                    | Kw::Static
                                    | Kw::Extern
                                    | Kw::Typedef
                                    | Kw::Template
                                    | Kw::Using
                                    | Kw::Inline
                            )
                    }
                    _ => false,
                };
                if decl_start {
                    break;
                }
            }
            consumed += 1;
            match self.peek().kind {
                TokenKind::Punct(Punct::LBrace) => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct(Punct::RBrace) => {
                    self.bump();
                    if depth <= 1 {
                        break;
                    }
                    depth -= 1;
                }
                TokenKind::Punct(Punct::Semi) if depth == 0 => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.span_from(start)
    }

    /// Skips a balanced `< ... >` region starting at the current `<`.
    /// Handles `>>` closing two levels. Returns the skipped text.
    fn skip_angles(&mut self) -> String {
        let start = self.span_here();
        let mut depth: i32 = 0;
        loop {
            if self.at_eof() {
                break;
            }
            match self.peek().kind {
                TokenKind::Punct(Punct::Lt) | TokenKind::Punct(Punct::TripleLt) => {
                    depth += if self.peek().is_punct(Punct::TripleLt) {
                        3
                    } else {
                        1
                    };
                    self.bump();
                }
                TokenKind::Punct(Punct::Shl) => {
                    depth += 2;
                    self.bump();
                }
                TokenKind::Punct(Punct::Gt) => {
                    depth -= 1;
                    self.bump();
                    if depth <= 0 {
                        break;
                    }
                }
                TokenKind::Punct(Punct::Shr) => {
                    depth -= 2;
                    self.bump();
                    if depth <= 0 {
                        break;
                    }
                }
                TokenKind::Punct(Punct::TripleGt) => {
                    depth -= 3;
                    self.bump();
                    if depth <= 0 {
                        break;
                    }
                }
                TokenKind::Punct(Punct::Semi) | TokenKind::Punct(Punct::LBrace) => break,
                _ => {
                    self.bump();
                }
            }
        }
        let sp = self.span_from(start);
        self.src[sp.start as usize..sp.end as usize]
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    }

    // ---- entry ----------------------------------------------------------

    fn parse_unit(mut self) -> TranslationUnit {
        // Pre-scan for record/typedef names so forward uses disambiguate.
        self.prescan_type_names();
        let mut decls = Vec::new();
        while !self.at_eof() {
            let before = self.pos;
            match self.parse_decl() {
                Some(d) => decls.push(d),
                None => {
                    let sp = self.recover();
                    decls.push(Decl::Opaque(sp));
                }
            }
            if self.pos == before {
                // Guarantee progress.
                self.bump();
            }
        }
        // `parse_source` fills in the octal literals from its lex and
        // the macro definitions from its preprocess.
        TranslationUnit {
            decls,
            recovery_count: self.recovery_count,
            octal_literals: Vec::new(),
            macros: Vec::new(),
        }
    }

    fn prescan_type_names(&mut self) {
        let mut i = 0;
        while i + 1 < self.toks.len() {
            let t = &self.toks[i];
            let is_record = matches!(
                t.kind,
                TokenKind::Keyword(Kw::Struct)
                    | TokenKind::Keyword(Kw::Class)
                    | TokenKind::Keyword(Kw::Union)
                    | TokenKind::Keyword(Kw::Enum)
            );
            if is_record && self.toks[i + 1].kind == TokenKind::Ident {
                let name = &self.src
                    [self.toks[i + 1].span.start as usize..self.toks[i + 1].span.end as usize];
                self.type_names.insert(name.to_string());
            }
            if t.kind == TokenKind::Keyword(Kw::Typedef) {
                // The identifier just before the terminating `;`.
                let mut j = i + 1;
                let mut last_ident: Option<usize> = None;
                while j < self.toks.len() && !self.toks[j].is_punct(Punct::Semi) {
                    if self.toks[j].kind == TokenKind::Ident {
                        last_ident = Some(j);
                    }
                    j += 1;
                }
                if let Some(k) = last_ident {
                    let name =
                        &self.src[self.toks[k].span.start as usize..self.toks[k].span.end as usize];
                    self.type_names.insert(name.to_string());
                }
            }
            // `using Alias = ...;`
            if t.kind == TokenKind::Keyword(Kw::Using)
                && self.toks[i + 1].kind == TokenKind::Ident
                && self
                    .toks
                    .get(i + 2)
                    .is_some_and(|t| t.is_punct(Punct::Assign))
            {
                let name = &self.src
                    [self.toks[i + 1].span.start as usize..self.toks[i + 1].span.end as usize];
                self.type_names.insert(name.to_string());
            }
            i += 1;
        }
    }

    // ---- declarations ---------------------------------------------------

    fn parse_decl(&mut self) -> Option<Decl> {
        let start = self.span_here();
        match self.peek().kind {
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Some(Decl::Opaque(start))
            }
            TokenKind::Keyword(Kw::Namespace) => self.parse_namespace(),
            TokenKind::Keyword(Kw::Using) => self.parse_using(),
            TokenKind::Keyword(Kw::Template) => {
                self.bump();
                if self.peek().is_punct(Punct::Lt) {
                    self.skip_angles();
                }
                self.parse_decl()
            }
            TokenKind::Keyword(Kw::Extern) if self.peek_at(1).kind == TokenKind::StrLit => {
                self.bump(); // extern
                self.bump(); // "C"
                if self.eat_punct(Punct::LBrace) {
                    let mut inner = Vec::new();
                    while !self.at_eof() && !self.peek().is_punct(Punct::RBrace) {
                        let before = self.pos;
                        match self.parse_decl() {
                            Some(mut d) => {
                                if let Decl::Function(f) = &mut d {
                                    f.sig.quals.extern_c = true;
                                }
                                inner.push(d);
                            }
                            None => {
                                let sp = self.recover();
                                inner.push(Decl::Opaque(sp));
                            }
                        }
                        if self.pos == before {
                            self.bump();
                        }
                    }
                    self.eat_punct(Punct::RBrace);
                    let span = self.span_from(start);
                    Some(Decl::Namespace(NamespaceDecl {
                        name: "extern \"C\"".to_string(),
                        decls: inner,
                        span,
                    }))
                } else {
                    let mut d = self.parse_decl()?;
                    if let Decl::Function(f) = &mut d {
                        f.sig.quals.extern_c = true;
                    }
                    Some(d)
                }
            }
            TokenKind::Keyword(Kw::Typedef) => self.parse_typedef(),
            TokenKind::Keyword(Kw::Struct)
            | TokenKind::Keyword(Kw::Class)
            | TokenKind::Keyword(Kw::Union)
                if self.looks_like_record_def() =>
            {
                self.parse_record().map(Decl::Record)
            }
            TokenKind::Keyword(Kw::Enum) if self.looks_like_enum_def() => {
                self.parse_enum().map(Decl::Enum)
            }
            _ => self.parse_var_or_function(),
        }
    }

    fn looks_like_record_def(&self) -> bool {
        // struct NAME { ... }  or  struct NAME : base {  or  struct {.
        let mut i = 1;
        if self.peek_at(i).kind == TokenKind::Ident {
            i += 1;
        }
        if self.peek_at(i).is_kw(Kw::Final) {
            i += 1;
        }
        self.peek_at(i).is_punct(Punct::LBrace) || self.peek_at(i).is_punct(Punct::Colon)
    }

    fn looks_like_enum_def(&self) -> bool {
        let mut i = 1;
        if self.peek_at(i).is_kw(Kw::Class) || self.peek_at(i).is_kw(Kw::Struct) {
            i += 1;
        }
        if self.peek_at(i).kind == TokenKind::Ident {
            i += 1;
        }
        if self.peek_at(i).is_punct(Punct::Colon) {
            // enum base type
            return true;
        }
        self.peek_at(i).is_punct(Punct::LBrace)
    }

    fn parse_namespace(&mut self) -> Option<Decl> {
        let start = self.span_here();
        self.bump(); // namespace
        let name = if self.peek().kind == TokenKind::Ident {
            let t = self.bump();
            self.text(&t).to_string()
        } else {
            String::new()
        };
        if !self.eat_punct(Punct::LBrace) {
            return None;
        }
        self.namespace_stack.push(name.clone());
        let mut decls = Vec::new();
        while !self.at_eof() && !self.peek().is_punct(Punct::RBrace) {
            let before = self.pos;
            match self.parse_decl() {
                Some(d) => decls.push(d),
                None => {
                    let sp = self.recover();
                    decls.push(Decl::Opaque(sp));
                }
            }
            if self.pos == before {
                self.bump();
            }
        }
        self.eat_punct(Punct::RBrace);
        self.namespace_stack.pop();
        let span = self.span_from(start);
        Some(Decl::Namespace(NamespaceDecl { name, decls, span }))
    }

    fn parse_using(&mut self) -> Option<Decl> {
        let start = self.span_here();
        self.bump(); // using
                     // `using Alias = Type;`
        if self.peek().kind == TokenKind::Ident && self.peek_at(1).is_punct(Punct::Assign) {
            let name_tok = self.bump();
            let name = self.text(&name_tok).to_string();
            self.bump(); // =
            let ty = self.parse_type()?;
            let (ty, _n) = self.parse_declarator_suffix(ty, None);
            self.eat_punct(Punct::Semi);
            self.type_names.insert(name.clone());
            let span = self.span_from(start);
            return Some(Decl::Typedef(TypedefDecl { name, ty, span }));
        }
        // `using namespace x::y;` or `using x::y;`
        let mut path = String::new();
        if self.eat_kw(Kw::Namespace) {
            path.push_str("namespace ");
        }
        while !self.at_eof() && !self.peek().is_punct(Punct::Semi) {
            let t = self.bump();
            path.push_str(self.text(&t));
        }
        self.eat_punct(Punct::Semi);
        let span = self.span_from(start);
        Some(Decl::Using(path, span))
    }

    fn parse_typedef(&mut self) -> Option<Decl> {
        let start = self.span_here();
        self.bump(); // typedef
        let base = self.parse_type()?;
        let (ty, name) = self.parse_declarator_suffix(base, None);
        let name = name.unwrap_or_default();
        // Skip anything unusual (function-pointer typedefs etc.).
        while !self.at_eof() && !self.peek().is_punct(Punct::Semi) {
            self.bump();
        }
        self.eat_punct(Punct::Semi);
        if !name.is_empty() {
            self.type_names.insert(name.clone());
        }
        let span = self.span_from(start);
        Some(Decl::Typedef(TypedefDecl { name, ty, span }))
    }

    fn parse_record(&mut self) -> Option<RecordDecl> {
        let start = self.span_here();
        let kind = match self.bump().kind {
            TokenKind::Keyword(Kw::Struct) => RecordKind::Struct,
            TokenKind::Keyword(Kw::Class) => RecordKind::Class,
            TokenKind::Keyword(Kw::Union) => RecordKind::Union,
            _ => return None,
        };
        let name = if self.peek().kind == TokenKind::Ident {
            let t = self.bump();
            self.text(&t).to_string()
        } else {
            String::new()
        };
        if !name.is_empty() {
            self.type_names.insert(name.clone());
        }
        self.eat_kw(Kw::Final);
        let mut bases = Vec::new();
        if self.eat_punct(Punct::Colon) {
            while !self.at_eof() && !self.peek().is_punct(Punct::LBrace) {
                let t = self.bump();
                if t.kind == TokenKind::Ident {
                    bases.push(self.text(&t).to_string());
                }
                if self.peek().is_punct(Punct::Lt) {
                    self.skip_angles();
                }
            }
        }
        if !self.eat_punct(Punct::LBrace) {
            return None;
        }
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut method_decls = Vec::new();
        while !self.at_eof() && !self.peek().is_punct(Punct::RBrace) {
            let before = self.pos;
            // Access specifiers.
            if (self.peek().is_kw(Kw::Public)
                || self.peek().is_kw(Kw::Private)
                || self.peek().is_kw(Kw::Protected))
                && self.peek_at(1).is_punct(Punct::Colon)
            {
                self.bump();
                self.bump();
                continue;
            }
            if self.peek().is_kw(Kw::Friend) {
                // Skip friend declarations entirely.
                while !self.at_eof() && !self.peek().is_punct(Punct::Semi) {
                    self.bump();
                }
                self.eat_punct(Punct::Semi);
                continue;
            }
            if self.peek().is_kw(Kw::Template) {
                self.bump();
                if self.peek().is_punct(Punct::Lt) {
                    self.skip_angles();
                }
                continue;
            }
            // Constructors / destructors.
            if self.at_ctor_or_dtor(&name) {
                if let Some(m) = self.parse_ctor_dtor(&name) {
                    match m {
                        CtorResult::Def(f) => methods.push(f),
                        CtorResult::Decl(s) => method_decls.push(s),
                    }
                    continue;
                }
                self.recover();
                continue;
            }
            match self.parse_member(&name) {
                Some(Member::Field(vs)) => fields.extend(vs),
                Some(Member::Method(f)) => methods.push(*f),
                Some(Member::MethodDecl(s)) => method_decls.push(s),
                Some(Member::Nothing) => {}
                None => {
                    self.recover();
                }
            }
            if self.pos == before {
                self.bump();
            }
        }
        self.eat_punct(Punct::RBrace);
        self.eat_punct(Punct::Semi);
        let span = self.span_from(start);
        Some(RecordDecl {
            kind,
            name,
            fields,
            methods,
            method_decls,
            bases,
            span,
        })
    }

    fn at_ctor_or_dtor(&self, class_name: &str) -> bool {
        if class_name.is_empty() {
            return false;
        }
        let t = self.peek();
        if t.is_punct(Punct::Tilde) {
            return true;
        }
        if t.kind == TokenKind::Ident
            && self.text(t) == class_name
            && self.peek_at(1).is_punct(Punct::LParen)
        {
            return true;
        }
        // explicit Ctor(...)
        if t.is_kw(Kw::Explicit) {
            return true;
        }
        false
    }

    fn parse_ctor_dtor(&mut self, class_name: &str) -> Option<CtorResult> {
        let start = self.span_here();
        self.eat_kw(Kw::Explicit);
        let is_dtor = self.eat_punct(Punct::Tilde);
        if self.peek().kind != TokenKind::Ident {
            return None;
        }
        let t = self.bump();
        let mut name = self.text(&t).to_string();
        if is_dtor {
            name = format!("~{name}");
        }
        if !self.peek().is_punct(Punct::LParen) {
            return None;
        }
        let (params, variadic) = self.parse_params()?;
        // Trailing specifiers & ctor-init list up to `{` or `;`.
        while !self.at_eof()
            && !self.peek().is_punct(Punct::LBrace)
            && !self.peek().is_punct(Punct::Semi)
        {
            if self.peek().is_punct(Punct::LParen) {
                self.skip_parens();
            } else {
                self.bump();
            }
        }
        let sig = FunctionSig {
            qualified_name: self.qualify(&format!("{class_name}::{name}")),
            name,
            ret: TypeRef::named("void"),
            params,
            variadic,
            quals: FnQuals::default(),
            span: self.span_from(start),
        };
        if self.peek().is_punct(Punct::LBrace) {
            let body = self.parse_block()?;
            let span = self.span_from(start);
            Some(CtorResult::Def(FunctionDef { sig, body, span }))
        } else {
            self.eat_punct(Punct::Semi);
            Some(CtorResult::Decl(sig))
        }
    }

    fn parse_member(&mut self, class_name: &str) -> Option<Member> {
        let start = self.span_here();
        let quals = self.parse_fn_quals();
        if self.peek().is_punct(Punct::RBrace) || self.at_eof() {
            return Some(Member::Nothing);
        }
        let base = self.parse_type()?;
        let (ty, name) = self.parse_declarator_suffix(base.clone(), None);
        let name = name?;
        if self.peek().is_punct(Punct::LParen) {
            // Method.
            let (params, variadic) = self.parse_params()?;
            let mut sig = FunctionSig {
                qualified_name: self.qualify(&format!("{class_name}::{name}")),
                name,
                ret: ty,
                params,
                variadic,
                quals,
                span: self.span_from(start),
            };
            // const / override / noexcept / = 0 / = default ...
            while !self.at_eof()
                && !self.peek().is_punct(Punct::LBrace)
                && !self.peek().is_punct(Punct::Semi)
            {
                if self.peek().is_kw(Kw::Virtual) {
                    sig.quals.is_virtual = true;
                }
                self.bump();
            }
            if self.peek().is_punct(Punct::LBrace) {
                let body = self.parse_block()?;
                let span = self.span_from(start);
                Some(Member::Method(Box::new(FunctionDef { sig, body, span })))
            } else {
                self.eat_punct(Punct::Semi);
                Some(Member::MethodDecl(sig))
            }
        } else {
            // Field(s).
            let mut vars = Vec::new();
            let mut cur_name = Some(name);
            let mut cur_ty = ty;
            loop {
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.parse_assign_expr())
                } else if self.peek().is_punct(Punct::LBrace) {
                    Some(self.parse_init_list())
                } else {
                    None
                };
                vars.push(VarDecl {
                    name: cur_name.take().unwrap_or_default(),
                    ty: cur_ty.clone(),
                    init,
                    storage: Storage::None,
                    cuda_space: CudaSpace::None,
                    span: self.span_from(start),
                });
                if self.eat_punct(Punct::Comma) {
                    let (t2, n2) = self.parse_declarator_suffix(base.clone(), None);
                    cur_ty = t2;
                    cur_name = n2;
                    if cur_name.is_none() {
                        break;
                    }
                } else {
                    break;
                }
            }
            self.eat_punct(Punct::Semi);
            Some(Member::Field(vars))
        }
    }

    fn parse_enum(&mut self) -> Option<EnumDecl> {
        let start = self.span_here();
        self.bump(); // enum
        let scoped = self.eat_kw(Kw::Class) || self.eat_kw(Kw::Struct);
        let name = if self.peek().kind == TokenKind::Ident {
            let t = self.bump();
            self.text(&t).to_string()
        } else {
            String::new()
        };
        if !name.is_empty() {
            self.type_names.insert(name.clone());
        }
        if self.eat_punct(Punct::Colon) {
            // Underlying type.
            while !self.at_eof() && !self.peek().is_punct(Punct::LBrace) {
                self.bump();
            }
        }
        if !self.eat_punct(Punct::LBrace) {
            return None;
        }
        let mut enumerators = Vec::new();
        while !self.at_eof() && !self.peek().is_punct(Punct::RBrace) {
            if self.peek().kind == TokenKind::Ident {
                let t = self.bump();
                enumerators.push(self.text(&t).to_string());
                if self.eat_punct(Punct::Assign) {
                    // Skip the value expression up to `,` or `}`.
                    let mut depth = 0i32;
                    while !self.at_eof() {
                        match self.peek().kind {
                            TokenKind::Punct(Punct::LParen) => depth += 1,
                            TokenKind::Punct(Punct::RParen) => depth -= 1,
                            TokenKind::Punct(Punct::Comma) if depth == 0 => break,
                            TokenKind::Punct(Punct::RBrace) if depth == 0 => break,
                            _ => {}
                        }
                        self.bump();
                    }
                }
            }
            if !self.eat_punct(Punct::Comma) && !self.peek().is_punct(Punct::RBrace) {
                self.bump();
            }
        }
        self.eat_punct(Punct::RBrace);
        self.eat_punct(Punct::Semi);
        let span = self.span_from(start);
        Some(EnumDecl {
            name,
            scoped,
            enumerators,
            span,
        })
    }

    fn parse_fn_quals(&mut self) -> FnQuals {
        let mut q = FnQuals::default();
        loop {
            match self.peek().kind {
                TokenKind::Keyword(Kw::CudaGlobal) => {
                    q.cuda_global = true;
                }
                TokenKind::Keyword(Kw::CudaDevice) => {
                    q.cuda_device = true;
                }
                TokenKind::Keyword(Kw::CudaHost) => {
                    q.cuda_host = true;
                }
                TokenKind::Keyword(Kw::CudaForceInline) | TokenKind::Keyword(Kw::Inline) => {
                    q.is_inline = true;
                }
                TokenKind::Keyword(Kw::CudaNoInline) => {}
                TokenKind::Keyword(Kw::CudaLaunchBounds) => {
                    self.bump();
                    if self.peek().is_punct(Punct::LParen) {
                        self.skip_parens();
                    }
                    continue;
                }
                TokenKind::Keyword(Kw::Static) => {
                    q.is_static = true;
                }
                TokenKind::Keyword(Kw::Virtual) => {
                    q.is_virtual = true;
                }
                TokenKind::Keyword(Kw::Constexpr) => {
                    q.is_constexpr = true;
                }
                TokenKind::Keyword(Kw::Explicit)
                | TokenKind::Keyword(Kw::Register)
                | TokenKind::Keyword(Kw::Friend) => {}
                _ => break,
            }
            self.bump();
        }
        q
    }

    fn parse_var_or_function(&mut self) -> Option<Decl> {
        let start = self.span_here();
        let quals = self.parse_fn_quals();
        let mut storage = if quals.is_static {
            Storage::Static
        } else {
            Storage::None
        };
        let mut cuda_space = CudaSpace::None;
        // storage / CUDA space keywords interleaved with type.
        loop {
            match self.peek().kind {
                TokenKind::Keyword(Kw::Extern) => {
                    storage = Storage::Extern;
                    self.bump();
                }
                TokenKind::Keyword(Kw::CudaShared) => {
                    cuda_space = CudaSpace::Shared;
                    self.bump();
                }
                TokenKind::Keyword(Kw::CudaConstant) => {
                    cuda_space = CudaSpace::Constant;
                    self.bump();
                }
                TokenKind::Keyword(Kw::CudaManaged) => {
                    cuda_space = CudaSpace::Managed;
                    self.bump();
                }
                _ => break,
            }
        }
        if !self.starts_type() {
            return None;
        }
        let base = self.parse_type()?;
        let (ty, name) = self.parse_declarator_suffix(base.clone(), None);
        let Some(name) = name else {
            // Could be an anonymous declaration like `struct {...} ;` — skip.
            while !self.at_eof() && !self.peek().is_punct(Punct::Semi) {
                self.bump();
            }
            self.eat_punct(Punct::Semi);
            return Some(Decl::Opaque(self.span_from(start)));
        };
        if self.peek().is_punct(Punct::LParen) && !self.paren_is_initializer() {
            // Function.
            let (params, variadic) = self.parse_params()?;
            let mut sig = FunctionSig {
                qualified_name: self.qualify(&name),
                name,
                ret: ty,
                params,
                variadic,
                quals,
                span: self.span_from(start),
            };
            // Trailing bits (const, noexcept, ctor-init `:`) up to `{` / `;`.
            while !self.at_eof()
                && !self.peek().is_punct(Punct::LBrace)
                && !self.peek().is_punct(Punct::Semi)
            {
                if self.peek().is_punct(Punct::LParen) {
                    self.skip_parens();
                } else {
                    self.bump();
                }
            }
            if self.peek().is_punct(Punct::LBrace) {
                let body = self.parse_block()?;
                let span = self.span_from(start);
                Some(Decl::Function(FunctionDef { sig, body, span }))
            } else {
                self.eat_punct(Punct::Semi);
                sig.span = self.span_from(start);
                Some(Decl::Prototype(sig))
            }
        } else {
            // Variable(s).
            let mut vars = Vec::new();
            let mut cur_ty = ty;
            let mut cur_name = name;
            loop {
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.parse_assign_expr())
                } else if self.peek().is_punct(Punct::LBrace) {
                    Some(self.parse_init_list())
                } else if self.peek().is_punct(Punct::LParen) {
                    // Constructor-style init.
                    let sp = self.span_here();
                    let args = self.parse_call_args()?;
                    Some(Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(Expr {
                                kind: ExprKind::Ident(cur_ty.name.clone()),
                                span: sp,
                            }),
                            args,
                        },
                        span: sp,
                    })
                } else {
                    None
                };
                vars.push(VarDecl {
                    name: cur_name.clone(),
                    ty: cur_ty.clone(),
                    init,
                    storage,
                    cuda_space,
                    span: self.span_from(start),
                });
                if self.eat_punct(Punct::Comma) {
                    let (t2, n2) = self.parse_declarator_suffix(base.clone(), None);
                    cur_ty = t2;
                    match n2 {
                        Some(n) => cur_name = n,
                        None => break,
                    }
                } else {
                    break;
                }
            }
            self.eat_punct(Punct::Semi);
            if vars.len() == 1 {
                Some(Decl::Var(vars.pop().expect("one var")))
            } else {
                // Multiple declarators at file scope: emit first, wrap rest.
                // Keep all as separate Var decls via a namespace-less trick:
                // return a synthetic namespace holding them.
                let span = self.span_from(start);
                Some(Decl::Namespace(NamespaceDecl {
                    name: String::new(),
                    decls: vars.into_iter().map(Decl::Var).collect(),
                    span,
                }))
            }
        }
    }

    /// Heuristic: a `(` after a declarator name is a constructor-style
    /// initialiser rather than a parameter list when the first token inside
    /// does not start a type.
    fn paren_is_initializer(&self) -> bool {
        let t1 = self.peek_at(1);
        match t1.kind {
            TokenKind::IntLit | TokenKind::FloatLit | TokenKind::StrLit | TokenKind::CharLit => {
                true
            }
            TokenKind::Punct(Punct::RParen) => false, // `()` → function
            TokenKind::Ident => {
                let name = self.text(t1);
                !self.type_names.contains(name)
                    && !matches!(
                        self.peek_at(2).kind,
                        TokenKind::Ident
                            | TokenKind::Punct(Punct::Star)
                            | TokenKind::Punct(Punct::Amp)
                    )
            }
            _ => false,
        }
    }

    fn qualify(&self, name: &str) -> String {
        let prefix: Vec<&str> = self
            .namespace_stack
            .iter()
            .filter(|s| !s.is_empty() && *s != "extern \"C\"")
            .map(|s| s.as_str())
            .collect();
        if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}::{}", prefix.join("::"), name)
        }
    }

    // ---- types & declarators --------------------------------------------

    fn starts_type(&self) -> bool {
        match self.peek().kind {
            TokenKind::Keyword(k) if k.is_type_keyword() => true,
            TokenKind::Ident => {
                let name = self.text(self.peek());
                if self.type_names.contains(name) {
                    return true;
                }
                // `std::vector<...>` style qualified type.
                if self.peek_at(1).is_punct(Punct::ColonColon) {
                    return true;
                }
                // Heuristic: Ident Ident → first is a type.
                matches!(self.peek_at(1).kind, TokenKind::Ident)
                    || (self.peek_at(1).is_punct(Punct::Star)
                        && matches!(self.peek_at(2).kind, TokenKind::Ident))
                    || (self.peek_at(1).is_punct(Punct::Amp)
                        && matches!(self.peek_at(2).kind, TokenKind::Ident))
            }
            _ => false,
        }
    }

    /// Parses a type specifier (no declarator): qualifiers + base name +
    /// optional template arguments.
    fn parse_type(&mut self) -> Option<TypeRef> {
        let mut is_const = false;
        let mut parts: Vec<String> = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::Keyword(Kw::Const) => {
                    is_const = true;
                    self.bump();
                }
                TokenKind::Keyword(Kw::Volatile)
                | TokenKind::Keyword(Kw::Restrict)
                | TokenKind::Keyword(Kw::CudaRestrict)
                | TokenKind::Keyword(Kw::Typename) => {
                    self.bump();
                }
                TokenKind::Keyword(Kw::Struct)
                | TokenKind::Keyword(Kw::Class)
                | TokenKind::Keyword(Kw::Union)
                | TokenKind::Keyword(Kw::Enum) => {
                    self.bump();
                    if self.peek().kind == TokenKind::Ident {
                        let t = self.bump();
                        parts.push(self.text(&t).to_string());
                    }
                    break;
                }
                TokenKind::Keyword(k) if k.is_type_keyword() => {
                    let t = self.bump();
                    parts.push(self.text(&t).to_string());
                    // Multi-word builtins keep absorbing.
                    if !matches!(k, Kw::Unsigned | Kw::Signed | Kw::Long | Kw::Short) {
                        break;
                    }
                }
                TokenKind::Ident if parts.is_empty() => {
                    let mut name = {
                        let t = self.bump();
                        self.text(&t).to_string()
                    };
                    // Qualified name a::b::c.
                    while self.peek().is_punct(Punct::ColonColon)
                        && self.peek_at(1).kind == TokenKind::Ident
                    {
                        self.bump();
                        let t = self.bump();
                        name.push_str("::");
                        name.push_str(self.text(&t));
                    }
                    // Template args.
                    if self.peek().is_punct(Punct::Lt) && self.angle_is_template() {
                        let args = self.skip_angles();
                        name.push_str(&args);
                    }
                    parts.push(name);
                    break;
                }
                TokenKind::Ident => {
                    // e.g. `unsigned SIZE_TYPE` — treat the keyword part as
                    // complete; identifier belongs to the declarator.
                    break;
                }
                _ => break,
            }
        }
        if parts.is_empty() {
            if is_const {
                parts.push("int".to_string());
            } else {
                return None;
            }
        }
        // Trailing const (`int const`).
        if self.peek().is_kw(Kw::Const) {
            is_const = true;
            self.bump();
        }
        Some(TypeRef {
            name: parts.join(" "),
            ptr_depth: 0,
            is_ref: false,
            is_const,
            array_dims: Vec::new(),
        })
    }

    /// Whether the `<` at the current position opens template arguments
    /// (rather than a comparison). Heuristic: scan ahead for a matching `>`
    /// before any `;`, `{`, or assignment at depth 0.
    fn angle_is_template(&self) -> bool {
        let mut depth = 0i32;
        let mut i = 0usize;
        while i < 64 {
            let t = self.peek_at(i);
            match t.kind {
                TokenKind::Punct(Punct::Lt) => depth += 1,
                TokenKind::Punct(Punct::Gt) => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                TokenKind::Punct(Punct::Shr) => {
                    depth -= 2;
                    if depth <= 0 {
                        return true;
                    }
                }
                TokenKind::Punct(Punct::Semi)
                | TokenKind::Punct(Punct::LBrace)
                | TokenKind::Punct(Punct::RBrace)
                | TokenKind::Punct(Punct::Assign)
                | TokenKind::Eof => return false,
                TokenKind::IntLit | TokenKind::FloatLit | TokenKind::StrLit => {
                    // Literals are common in comparisons, rare in the
                    // template args we care about (allow small ints).
                }
                _ => {}
            }
            i += 1;
        }
        false
    }

    /// Parses `*`/`&`/`const` declarator prefixes, then an optional name,
    /// then array suffixes. Returns the refined type and name.
    fn parse_declarator_suffix(
        &mut self,
        mut ty: TypeRef,
        preset_name: Option<String>,
    ) -> (TypeRef, Option<String>) {
        loop {
            match self.peek().kind {
                TokenKind::Punct(Punct::Star) => {
                    ty.ptr_depth = ty.ptr_depth.saturating_add(1);
                    self.bump();
                }
                TokenKind::Punct(Punct::Amp) => {
                    ty.is_ref = true;
                    self.bump();
                }
                TokenKind::Punct(Punct::AmpAmp) => {
                    ty.is_ref = true;
                    self.bump();
                }
                TokenKind::Keyword(Kw::Const) => {
                    ty.is_const = true;
                    self.bump();
                }
                TokenKind::Keyword(Kw::Restrict) | TokenKind::Keyword(Kw::CudaRestrict) => {
                    self.bump();
                }
                _ => break,
            }
        }
        let mut name = preset_name;
        if name.is_none() {
            if self.peek().kind == TokenKind::Ident {
                let mut n = {
                    let t = self.bump();
                    self.text(&t).to_string()
                };
                // Qualified declarator `Class::method`.
                while self.peek().is_punct(Punct::ColonColon)
                    && (self.peek_at(1).kind == TokenKind::Ident
                        || self.peek_at(1).is_punct(Punct::Tilde))
                {
                    self.bump();
                    if self.eat_punct(Punct::Tilde) {
                        n.push_str("::~");
                    } else {
                        n.push_str("::");
                    }
                    if self.peek().kind == TokenKind::Ident {
                        let t = self.bump();
                        n.push_str(self.text(&t));
                    }
                }
                name = Some(n);
            } else if self.peek().is_kw(Kw::Operator) {
                self.bump();
                let mut n = String::from("operator");
                while !self.at_eof() && !self.peek().is_punct(Punct::LParen) {
                    let t = self.bump();
                    n.push_str(self.text(&t));
                }
                name = Some(n);
            }
        }
        // Array suffixes.
        while self.peek().is_punct(Punct::LBracket) {
            self.bump();
            if self.eat_punct(Punct::RBracket) {
                ty.array_dims.push(None);
            } else {
                let e = self.parse_assign_expr();
                let dim = match e.kind {
                    ExprKind::IntLit(v) if v >= 0 => Some(v as u64),
                    _ => None,
                };
                ty.array_dims.push(dim);
                self.eat_punct(Punct::RBracket);
            }
        }
        (ty, name)
    }

    fn parse_params(&mut self) -> Option<(Vec<Param>, bool)> {
        if !self.eat_punct(Punct::LParen) {
            return None;
        }
        let mut params = Vec::new();
        let mut variadic = false;
        if self.eat_punct(Punct::RParen) {
            return Some((params, variadic));
        }
        loop {
            if self.at_eof() {
                break;
            }
            if self.peek().is_punct(Punct::Ellipsis) {
                self.bump();
                variadic = true;
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                continue;
            }
            if self.peek().is_kw(Kw::Void) && self.peek_at(1).is_punct(Punct::RParen) {
                self.bump();
                self.bump();
                break;
            }
            let start = self.span_here();
            let Some(base) = self.parse_type() else {
                // Unparseable parameter: skip to `,` or `)`.
                let mut depth = 0i32;
                while !self.at_eof() {
                    match self.peek().kind {
                        TokenKind::Punct(Punct::LParen) => depth += 1,
                        TokenKind::Punct(Punct::RParen) => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        TokenKind::Punct(Punct::Comma) if depth == 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                if self.eat_punct(Punct::Comma) {
                    continue;
                }
                self.eat_punct(Punct::RParen);
                break;
            };
            let (ty, name) = self.parse_declarator_suffix(base, None);
            // Default argument.
            if self.eat_punct(Punct::Assign) {
                let _ = self.parse_assign_expr();
            }
            params.push(Param {
                name,
                ty,
                span: self.span_from(start),
            });
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            self.eat_punct(Punct::RParen);
            break;
        }
        Some((params, variadic))
    }

    fn skip_parens(&mut self) {
        let mut depth = 0i32;
        while !self.at_eof() {
            match self.peek().kind {
                TokenKind::Punct(Punct::LParen) => depth += 1,
                TokenKind::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    // ---- statements -------------------------------------------------------

    fn parse_block(&mut self) -> Option<Block> {
        let start = self.span_here();
        if !self.eat_punct(Punct::LBrace) {
            return None;
        }
        let mut stmts = Vec::new();
        while !self.at_eof() && !self.peek().is_punct(Punct::RBrace) {
            let before = self.pos;
            stmts.push(self.parse_stmt());
            if self.pos == before {
                self.bump();
            }
        }
        self.eat_punct(Punct::RBrace);
        Some(Block {
            stmts,
            span: self.span_from(start),
        })
    }

    fn parse_stmt(&mut self) -> Stmt {
        let start = self.span_here();
        let kind = match self.peek().kind {
            TokenKind::Punct(Punct::LBrace) => match self.parse_block() {
                Some(b) => StmtKind::Block(b),
                None => {
                    self.recover();
                    StmtKind::Opaque
                }
            },
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                StmtKind::Empty
            }
            TokenKind::Keyword(Kw::If) => self.parse_if(),
            TokenKind::Keyword(Kw::While) => self.parse_while(),
            TokenKind::Keyword(Kw::Do) => self.parse_do_while(),
            TokenKind::Keyword(Kw::For) => self.parse_for(),
            TokenKind::Keyword(Kw::Switch) => self.parse_switch(),
            TokenKind::Keyword(Kw::Case) => {
                self.bump();
                let e = self.parse_ternary_expr();
                self.eat_punct(Punct::Colon);
                StmtKind::Case(e)
            }
            TokenKind::Keyword(Kw::Default) => {
                self.bump();
                self.eat_punct(Punct::Colon);
                StmtKind::Default
            }
            TokenKind::Keyword(Kw::Return) => {
                self.bump();
                if self.eat_punct(Punct::Semi) {
                    StmtKind::Return(None)
                } else {
                    let e = self.parse_expr();
                    self.eat_punct(Punct::Semi);
                    StmtKind::Return(Some(e))
                }
            }
            TokenKind::Keyword(Kw::Break) => {
                self.bump();
                self.eat_punct(Punct::Semi);
                StmtKind::Break
            }
            TokenKind::Keyword(Kw::Continue) => {
                self.bump();
                self.eat_punct(Punct::Semi);
                StmtKind::Continue
            }
            TokenKind::Keyword(Kw::Goto) => {
                self.bump();
                let label = if self.peek().kind == TokenKind::Ident {
                    let t = self.bump();
                    self.text(&t).to_string()
                } else {
                    String::new()
                };
                self.eat_punct(Punct::Semi);
                StmtKind::Goto(label)
            }
            TokenKind::Keyword(Kw::Try) => self.parse_try(),
            TokenKind::Keyword(Kw::Throw) => {
                self.bump();
                let e = if self.peek().is_punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.parse_expr()))
                };
                self.eat_punct(Punct::Semi);
                StmtKind::Expr(Expr {
                    kind: ExprKind::Throw(e),
                    span: self.span_from(start),
                })
            }
            // Label: `ident:` not followed by `:` (to exclude `a::b`).
            TokenKind::Ident
                if self.peek_at(1).is_punct(Punct::Colon)
                    && !self.peek_at(2).is_punct(Punct::Colon) =>
            {
                let t = self.bump();
                let label = self.text(&t).to_string();
                self.bump(); // :
                let inner = self.parse_stmt();
                StmtKind::Label(label, Box::new(inner))
            }
            _ => {
                if self.starts_decl_stmt() {
                    match self.parse_decl_stmt() {
                        Some(vars) => StmtKind::Decl(vars),
                        None => {
                            self.recover();
                            StmtKind::Opaque
                        }
                    }
                } else {
                    let e = self.parse_expr();
                    let opaque = matches!(e.kind, ExprKind::Opaque);
                    if !self.eat_punct(Punct::Semi) && opaque {
                        self.recover();
                        StmtKind::Opaque
                    } else {
                        StmtKind::Expr(e)
                    }
                }
            }
        };
        Stmt {
            kind,
            span: self.span_from(start),
        }
    }

    fn starts_decl_stmt(&self) -> bool {
        match self.peek().kind {
            TokenKind::Keyword(k)
                if k.is_type_keyword()
                    || matches!(k, Kw::Static | Kw::Constexpr | Kw::Register)
                    || matches!(k, Kw::CudaShared | Kw::CudaConstant | Kw::CudaManaged) =>
            {
                true
            }
            TokenKind::Ident => {
                let name = self.text(self.peek());
                if !self.type_names.contains(name) {
                    // Qualified type like std::vector at statement start.
                    if self.peek_at(1).is_punct(Punct::ColonColon) {
                        // Could be a qualified call too; require a
                        // declarator-looking shape after the qualified name.
                        return self.qualified_looks_like_decl();
                    }
                    return false;
                }
                // Known type name: next must look like a declarator.
                matches!(self.peek_at(1).kind, TokenKind::Ident)
                    || (self.peek_at(1).is_punct(Punct::Star)
                        && matches!(self.peek_at(2).kind, TokenKind::Ident))
                    || (self.peek_at(1).is_punct(Punct::Amp)
                        && matches!(self.peek_at(2).kind, TokenKind::Ident))
                    || (self.peek_at(1).is_punct(Punct::Lt))
            }
            _ => false,
        }
    }

    fn qualified_looks_like_decl(&self) -> bool {
        // Scan `a::b::c` then check for Ident or `<`.
        let mut i = 0usize;
        loop {
            if self.peek_at(i).kind != TokenKind::Ident {
                return false;
            }
            i += 1;
            if self.peek_at(i).is_punct(Punct::ColonColon) {
                i += 1;
                continue;
            }
            break;
        }
        matches!(self.peek_at(i).kind, TokenKind::Ident)
            || self.peek_at(i).is_punct(Punct::Lt)
            || (self.peek_at(i).is_punct(Punct::Star)
                && matches!(self.peek_at(i + 1).kind, TokenKind::Ident))
            || (self.peek_at(i).is_punct(Punct::Amp)
                && matches!(self.peek_at(i + 1).kind, TokenKind::Ident))
    }

    fn parse_decl_stmt(&mut self) -> Option<Vec<VarDecl>> {
        let start = self.span_here();
        let mut storage = Storage::None;
        let mut cuda_space = CudaSpace::None;
        loop {
            match self.peek().kind {
                TokenKind::Keyword(Kw::Static) => {
                    storage = Storage::Static;
                    self.bump();
                }
                TokenKind::Keyword(Kw::Constexpr) | TokenKind::Keyword(Kw::Register) => {
                    self.bump();
                }
                TokenKind::Keyword(Kw::CudaShared) => {
                    cuda_space = CudaSpace::Shared;
                    self.bump();
                }
                TokenKind::Keyword(Kw::CudaConstant) => {
                    cuda_space = CudaSpace::Constant;
                    self.bump();
                }
                TokenKind::Keyword(Kw::CudaManaged) => {
                    cuda_space = CudaSpace::Managed;
                    self.bump();
                }
                _ => break,
            }
        }
        let base = self.parse_type()?;
        let mut vars = Vec::new();
        loop {
            let (ty, name) = self.parse_declarator_suffix(base.clone(), None);
            let name = name?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_assign_expr())
            } else if self.peek().is_punct(Punct::LBrace) {
                Some(self.parse_init_list())
            } else if self.peek().is_punct(Punct::LParen) {
                let sp = self.span_here();
                let args = self.parse_call_args()?;
                Some(Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(Expr {
                            kind: ExprKind::Ident(ty.name.clone()),
                            span: sp,
                        }),
                        args,
                    },
                    span: sp,
                })
            } else {
                None
            };
            vars.push(VarDecl {
                name,
                ty,
                init,
                storage,
                cuda_space,
                span: self.span_from(start),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.eat_punct(Punct::Semi);
        Some(vars)
    }

    fn parse_paren_cond(&mut self) -> Expr {
        if !self.eat_punct(Punct::LParen) {
            return self.opaque_expr();
        }
        // Condition may itself be a declaration (`if (int x = f())`) — treat
        // as opaque-ish by parsing as expression; our corpus uses plain
        // expressions.
        let e = self.parse_expr();
        self.eat_punct(Punct::RParen);
        e
    }

    fn parse_if(&mut self) -> StmtKind {
        self.bump(); // if
        let cond = self.parse_paren_cond();
        let then_branch = Box::new(self.parse_stmt());
        let else_branch = if self.eat_kw(Kw::Else) {
            Some(Box::new(self.parse_stmt()))
        } else {
            None
        };
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        }
    }

    fn parse_while(&mut self) -> StmtKind {
        self.bump();
        let cond = self.parse_paren_cond();
        let body = Box::new(self.parse_stmt());
        StmtKind::While { cond, body }
    }

    fn parse_do_while(&mut self) -> StmtKind {
        self.bump(); // do
        let body = Box::new(self.parse_stmt());
        self.eat_kw(Kw::While);
        let cond = self.parse_paren_cond();
        self.eat_punct(Punct::Semi);
        StmtKind::DoWhile { body, cond }
    }

    fn parse_for(&mut self) -> StmtKind {
        self.bump(); // for
        if !self.eat_punct(Punct::LParen) {
            let body = Box::new(self.parse_stmt());
            return StmtKind::For {
                init: None,
                cond: None,
                step: None,
                body,
            };
        }
        let init = if self.eat_punct(Punct::Semi) {
            None
        } else if self.starts_decl_stmt() {
            match self.parse_decl_stmt() {
                Some(vars) => {
                    let span = vars
                        .first()
                        .map(|v| v.span)
                        .unwrap_or_else(|| self.span_here());
                    Some(Box::new(Stmt {
                        kind: StmtKind::Decl(vars),
                        span,
                    }))
                }
                None => None,
            }
        } else {
            let e = self.parse_expr();
            let span = e.span;
            self.eat_punct(Punct::Semi);
            Some(Box::new(Stmt {
                kind: StmtKind::Expr(e),
                span,
            }))
        };
        let cond = if self.peek().is_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.eat_punct(Punct::Semi);
        let step = if self.peek().is_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.eat_punct(Punct::RParen);
        let body = Box::new(self.parse_stmt());
        StmtKind::For {
            init,
            cond,
            step,
            body,
        }
    }

    fn parse_switch(&mut self) -> StmtKind {
        self.bump(); // switch
        let cond = self.parse_paren_cond();
        let body = match self.parse_block() {
            Some(b) => b,
            None => {
                let sp = self.recover();
                Block {
                    stmts: vec![],
                    span: sp,
                }
            }
        };
        StmtKind::Switch { cond, body }
    }

    fn parse_try(&mut self) -> StmtKind {
        self.bump(); // try
        let body = match self.parse_block() {
            Some(b) => b,
            None => {
                let sp = self.recover();
                return StmtKind::Block(Block {
                    stmts: vec![],
                    span: sp,
                });
            }
        };
        let mut catches = Vec::new();
        while self.peek().is_kw(Kw::Catch) {
            self.bump();
            let mut param = String::new();
            if self.peek().is_punct(Punct::LParen) {
                let start = self.span_here();
                self.skip_parens();
                let sp = self.span_from(start);
                param = self.src[sp.start as usize..sp.end as usize].to_string();
            }
            let handler = match self.parse_block() {
                Some(b) => b,
                None => {
                    let sp = self.recover();
                    Block {
                        stmts: vec![],
                        span: sp,
                    }
                }
            };
            catches.push((param, handler));
        }
        StmtKind::Try { body, catches }
    }

    // ---- expressions ------------------------------------------------------

    fn opaque_expr(&self) -> Expr {
        Expr {
            kind: ExprKind::Opaque,
            span: self.span_here(),
        }
    }

    fn parse_expr(&mut self) -> Expr {
        let mut e = self.parse_assign_expr();
        while self.peek().is_punct(Punct::Comma) {
            self.bump();
            let rhs = self.parse_assign_expr();
            let span = e.span.merge(rhs.span);
            e = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::Comma,
                    lhs: Box::new(e),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        e
    }

    fn parse_assign_expr(&mut self) -> Expr {
        let lhs = self.parse_ternary_expr();
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::Assign) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusAssign) => Some(AssignOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(AssignOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(AssignOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(AssignOp::Div),
            TokenKind::Punct(Punct::PercentAssign) => Some(AssignOp::Rem),
            TokenKind::Punct(Punct::ShlAssign) => Some(AssignOp::Shl),
            TokenKind::Punct(Punct::ShrAssign) => Some(AssignOp::Shr),
            TokenKind::Punct(Punct::AmpAssign) => Some(AssignOp::And),
            TokenKind::Punct(Punct::PipeAssign) => Some(AssignOp::Or),
            TokenKind::Punct(Punct::CaretAssign) => Some(AssignOp::Xor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_assign_expr();
            let span = lhs.span.merge(rhs.span);
            Expr {
                kind: ExprKind::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            }
        } else {
            lhs
        }
    }

    fn parse_ternary_expr(&mut self) -> Expr {
        let cond = self.parse_binary_expr(0);
        if self.eat_punct(Punct::Question) {
            let then_expr = self.parse_assign_expr();
            self.eat_punct(Punct::Colon);
            let else_expr = self.parse_assign_expr();
            let span = cond.span.merge(else_expr.span);
            Expr {
                kind: ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_expr: Box::new(then_expr),
                    else_expr: Box::new(else_expr),
                },
                span,
            }
        } else {
            cond
        }
    }

    fn bin_op_at(&self) -> Option<(BinOp, u8)> {
        // Precedence: higher binds tighter.
        let (op, prec) = match self.peek().kind {
            TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
            TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
            TokenKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
            TokenKind::Punct(Punct::Ne) => (BinOp::Ne, 6),
            TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Punct(Punct::AmpAmp) => (BinOp::LogAnd, 2),
            TokenKind::Punct(Punct::PipePipe) => (BinOp::LogOr, 1),
            _ => return None,
        };
        Some((op, prec))
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> Expr {
        let mut lhs = self.parse_unary_expr();
        while let Some((op, prec)) = self.bin_op_at() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary_expr(prec + 1);
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        lhs
    }

    fn parse_unary_expr(&mut self) -> Expr {
        let start = self.span_here();
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.parse_unary_expr();
            let span = start.merge(expr.span);
            return Expr {
                kind: ExprKind::Unary {
                    op,
                    expr: Box::new(expr),
                },
                span,
            };
        }
        match self.peek().kind {
            TokenKind::Keyword(Kw::Sizeof) => {
                self.bump();
                let inner = if self.peek().is_punct(Punct::LParen) {
                    self.bump();
                    let e = if self.starts_type() {
                        let ty = self.parse_type().unwrap_or_default();
                        let (ty, _) = self.parse_declarator_suffix(ty, Some(String::new()));
                        Expr {
                            kind: ExprKind::Ident(ty.display()),
                            span: self.span_from(start),
                        }
                    } else {
                        self.parse_expr()
                    };
                    self.eat_punct(Punct::RParen);
                    e
                } else {
                    self.parse_unary_expr()
                };
                let span = self.span_from(start);
                Expr {
                    kind: ExprKind::SizeOf(Box::new(inner)),
                    span,
                }
            }
            TokenKind::Keyword(Kw::New) => {
                self.bump();
                let ty = self.parse_type().unwrap_or_else(|| TypeRef::named("int"));
                let (ty2, _) = self.parse_declarator_suffix(ty, Some(String::new()));
                let mut array = None;
                let mut args = Vec::new();
                let mut ty = ty2;
                if !ty.array_dims.is_empty() {
                    // new T[n] parsed the extent as an array dim.
                    if let Some(Some(n)) = ty.array_dims.first() {
                        array = Some(Box::new(Expr {
                            kind: ExprKind::IntLit(*n as i64),
                            span: self.span_from(start),
                        }));
                    } else {
                        array = Some(Box::new(self.opaque_expr()));
                    }
                    ty.array_dims.clear();
                } else if self.peek().is_punct(Punct::LBracket) {
                    self.bump();
                    array = Some(Box::new(self.parse_expr()));
                    self.eat_punct(Punct::RBracket);
                } else if self.peek().is_punct(Punct::LParen) {
                    args = self.parse_call_args().unwrap_or_default();
                }
                let span = self.span_from(start);
                Expr {
                    kind: ExprKind::New { ty, args, array },
                    span,
                }
            }
            TokenKind::Keyword(Kw::Delete) => {
                self.bump();
                let array = if self.eat_punct(Punct::LBracket) {
                    self.eat_punct(Punct::RBracket);
                    true
                } else {
                    false
                };
                let e = self.parse_unary_expr();
                let span = self.span_from(start);
                Expr {
                    kind: ExprKind::Delete {
                        expr: Box::new(e),
                        array,
                    },
                    span,
                }
            }
            TokenKind::Keyword(Kw::Throw) => {
                self.bump();
                let e = if self.peek().is_punct(Punct::Semi) || self.peek().is_punct(Punct::RParen)
                {
                    None
                } else {
                    Some(Box::new(self.parse_assign_expr()))
                };
                let span = self.span_from(start);
                Expr {
                    kind: ExprKind::Throw(e),
                    span,
                }
            }
            TokenKind::Keyword(Kw::StaticCast)
            | TokenKind::Keyword(Kw::ReinterpretCast)
            | TokenKind::Keyword(Kw::ConstCast)
            | TokenKind::Keyword(Kw::DynamicCast) => {
                let kind = match self.bump().kind {
                    TokenKind::Keyword(Kw::StaticCast) => CastKind::Static,
                    TokenKind::Keyword(Kw::ReinterpretCast) => CastKind::Reinterpret,
                    TokenKind::Keyword(Kw::ConstCast) => CastKind::Const,
                    _ => CastKind::Dynamic,
                };
                let mut ty = TypeRef::named("?");
                if self.eat_punct(Punct::Lt) {
                    if let Some(t) = self.parse_type() {
                        let (t, _) = self.parse_declarator_suffix(t, Some(String::new()));
                        ty = t;
                    }
                    // Consume the closing `>` (may be merged into `>>`).
                    if !self.eat_punct(Punct::Gt) {
                        self.bump();
                    }
                }
                let expr = if self.peek().is_punct(Punct::LParen) {
                    self.bump();
                    let e = self.parse_expr();
                    self.eat_punct(Punct::RParen);
                    e
                } else {
                    self.opaque_expr()
                };
                let span = self.span_from(start);
                self.parse_postfix(Expr {
                    kind: ExprKind::Cast {
                        kind,
                        ty,
                        expr: Box::new(expr),
                    },
                    span,
                })
            }
            // A functional cast `T(e)` whose `T` is a builtin arithmetic
            // type keyword. `Foo(x)` stays a call: without a symbol table
            // it is ambiguous.
            TokenKind::Keyword(
                Kw::Char
                | Kw::Short
                | Kw::Int
                | Kw::Long
                | Kw::Float
                | Kw::Double
                | Kw::Signed
                | Kw::Unsigned
                | Kw::Bool,
            ) if self.peek_at(1).is_punct(Punct::LParen)
                && !self.peek_at(2).is_punct(Punct::RParen) =>
            {
                let t = self.bump();
                let ty = TypeRef::named(self.text(&t));
                self.bump(); // (
                let expr = self.parse_expr();
                self.eat_punct(Punct::RParen);
                let span = self.span_from(start);
                self.parse_postfix(Expr {
                    kind: ExprKind::Cast {
                        kind: CastKind::Functional,
                        ty,
                        expr: Box::new(expr),
                    },
                    span,
                })
            }
            TokenKind::Punct(Punct::LParen) if self.paren_is_cast() => {
                self.bump(); // (
                let ty = self.parse_type().unwrap_or_default();
                let (ty, _) = self.parse_declarator_suffix(ty, Some(String::new()));
                self.eat_punct(Punct::RParen);
                let expr = self.parse_unary_expr();
                let span = self.span_from(start);
                Expr {
                    kind: ExprKind::Cast {
                        kind: CastKind::CStyle,
                        ty,
                        expr: Box::new(expr),
                    },
                    span,
                }
            }
            _ => {
                let e = self.parse_primary();
                self.parse_postfix(e)
            }
        }
    }

    /// Heuristic C-style cast detection: `(` followed by a type-looking
    /// token sequence and a `)` that is followed by something that can
    /// begin a unary expression.
    fn paren_is_cast(&self) -> bool {
        let mut i = 1usize;
        let mut saw_type = false;
        loop {
            let t = self.peek_at(i);
            match t.kind {
                TokenKind::Keyword(k) if k.is_type_keyword() => {
                    saw_type = true;
                    i += 1;
                }
                TokenKind::Ident => {
                    let name = self.text(t);
                    if !saw_type && self.type_names.contains(name) {
                        saw_type = true;
                        i += 1;
                    } else {
                        return false;
                    }
                }
                TokenKind::Punct(Punct::Star) | TokenKind::Punct(Punct::Amp) if saw_type => {
                    i += 1;
                }
                TokenKind::Punct(Punct::ColonColon) => {
                    i += 1;
                }
                TokenKind::Punct(Punct::RParen) => {
                    if !saw_type {
                        return false;
                    }
                    // `)` followed by an operand-like token.
                    let next = self.peek_at(i + 1);
                    return matches!(
                        next.kind,
                        TokenKind::Ident
                            | TokenKind::IntLit
                            | TokenKind::FloatLit
                            | TokenKind::StrLit
                            | TokenKind::CharLit
                            | TokenKind::Punct(Punct::LParen)
                            | TokenKind::Punct(Punct::Star)
                            | TokenKind::Punct(Punct::Amp)
                            | TokenKind::Punct(Punct::Tilde)
                            | TokenKind::Punct(Punct::Bang)
                            | TokenKind::Punct(Punct::Minus)
                            | TokenKind::Punct(Punct::PlusPlus)
                            | TokenKind::Punct(Punct::MinusMinus)
                    ) || next.is_kw(Kw::New)
                        || next.is_kw(Kw::Sizeof)
                        || next.is_kw(Kw::This)
                        || next.is_kw(Kw::Nullptr);
                }
                _ => return false,
            }
            if i > 16 {
                return false;
            }
        }
    }

    fn parse_primary(&mut self) -> Expr {
        let start = self.span_here();
        match self.peek().kind {
            TokenKind::IntLit => {
                let t = self.bump();
                let txt = self.text(&t);
                let v = parse_int_literal(txt);
                Expr {
                    kind: ExprKind::IntLit(v),
                    span: t.span,
                }
            }
            TokenKind::FloatLit => {
                let t = self.bump();
                let txt: String = self
                    .text(&t)
                    .trim_end_matches(['f', 'F', 'l', 'L'])
                    .to_string();
                let v = txt.parse::<f64>().unwrap_or(0.0);
                Expr {
                    kind: ExprKind::FloatLit(v),
                    span: t.span,
                }
            }
            TokenKind::StrLit => {
                let t = self.bump();
                Expr {
                    kind: ExprKind::StrLit(self.text(&t).to_string()),
                    span: t.span,
                }
            }
            TokenKind::CharLit => {
                let t = self.bump();
                let inner = self.text(&t);
                let c = decode_char_literal(inner);
                Expr {
                    kind: ExprKind::CharLit(c),
                    span: t.span,
                }
            }
            TokenKind::Keyword(Kw::True) => {
                let t = self.bump();
                Expr {
                    kind: ExprKind::BoolLit(true),
                    span: t.span,
                }
            }
            TokenKind::Keyword(Kw::False) => {
                let t = self.bump();
                Expr {
                    kind: ExprKind::BoolLit(false),
                    span: t.span,
                }
            }
            TokenKind::Keyword(Kw::Nullptr) => {
                let t = self.bump();
                Expr {
                    kind: ExprKind::Null,
                    span: t.span,
                }
            }
            TokenKind::Keyword(Kw::This) => {
                let t = self.bump();
                Expr {
                    kind: ExprKind::This,
                    span: t.span,
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr();
                self.eat_punct(Punct::RParen);
                Expr {
                    kind: e.kind,
                    span: self.span_from(start),
                }
            }
            TokenKind::Punct(Punct::LBrace) => self.parse_init_list(),
            TokenKind::Ident => {
                let t = self.bump();
                let mut name = self.text(&t).to_string();
                while self.peek().is_punct(Punct::ColonColon)
                    && self.peek_at(1).kind == TokenKind::Ident
                {
                    self.bump();
                    let t = self.bump();
                    name.push_str("::");
                    name.push_str(self.text(&t));
                }
                if name == "NULL" {
                    return Expr {
                        kind: ExprKind::Null,
                        span: self.span_from(start),
                    };
                }
                Expr {
                    kind: ExprKind::Ident(name),
                    span: self.span_from(start),
                }
            }
            _ => {
                // Unknown token in expression position.
                self.bump();
                Expr {
                    kind: ExprKind::Opaque,
                    span: self.span_from(start),
                }
            }
        }
    }

    fn parse_init_list(&mut self) -> Expr {
        let start = self.span_here();
        self.eat_punct(Punct::LBrace);
        let mut items = Vec::new();
        while !self.at_eof() && !self.peek().is_punct(Punct::RBrace) {
            items.push(self.parse_assign_expr());
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.eat_punct(Punct::RBrace);
        Expr {
            kind: ExprKind::InitList(items),
            span: self.span_from(start),
        }
    }

    fn parse_call_args(&mut self) -> Option<Vec<Expr>> {
        if !self.eat_punct(Punct::LParen) {
            return None;
        }
        let mut args = Vec::new();
        if self.eat_punct(Punct::RParen) {
            return Some(args);
        }
        loop {
            if self.at_eof() {
                break;
            }
            args.push(self.parse_assign_expr());
            if self.eat_punct(Punct::Comma) {
                continue;
            }
            self.eat_punct(Punct::RParen);
            break;
        }
        Some(args)
    }

    fn parse_postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            match self.peek().kind {
                TokenKind::Punct(Punct::LParen) => {
                    let args = self.parse_call_args().unwrap_or_default();
                    let span = self.span_from(e.span);
                    e = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span,
                    };
                }
                TokenKind::Punct(Punct::TripleLt) => {
                    self.bump();
                    let mut config = Vec::new();
                    while !self.at_eof() && !self.peek().is_punct(Punct::TripleGt) {
                        config.push(self.parse_assign_expr());
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    self.eat_punct(Punct::TripleGt);
                    let args = if self.peek().is_punct(Punct::LParen) {
                        self.parse_call_args().unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    let span = self.span_from(e.span);
                    e = Expr {
                        kind: ExprKind::KernelLaunch {
                            callee: Box::new(e),
                            config,
                            args,
                        },
                        span,
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr();
                    self.eat_punct(Punct::RBracket);
                    let span = self.span_from(e.span);
                    e = Expr {
                        kind: ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(idx),
                        },
                        span,
                    };
                }
                TokenKind::Punct(Punct::Dot) | TokenKind::Punct(Punct::Arrow) => {
                    let arrow = self.peek().is_punct(Punct::Arrow);
                    self.bump();
                    let field = if self.peek().kind == TokenKind::Ident {
                        let t = self.bump();
                        self.text(&t).to_string()
                    } else {
                        String::new()
                    };
                    let span = self.span_from(e.span);
                    e = Expr {
                        kind: ExprKind::Member {
                            base: Box::new(e),
                            field,
                            arrow,
                        },
                        span,
                    };
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    let span = self.span_from(e.span);
                    e = Expr {
                        kind: ExprKind::Unary {
                            op: UnOp::PostInc,
                            expr: Box::new(e),
                        },
                        span,
                    };
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    let span = self.span_from(e.span);
                    e = Expr {
                        kind: ExprKind::Unary {
                            op: UnOp::PostDec,
                            expr: Box::new(e),
                        },
                        span,
                    };
                }
                _ => break,
            }
        }
        e
    }
}

enum Member {
    Field(Vec<VarDecl>),
    Method(Box<FunctionDef>),
    MethodDecl(FunctionSig),
    Nothing,
}

enum CtorResult {
    Def(FunctionDef),
    Decl(FunctionSig),
}

fn parse_int_literal(txt: &str) -> i64 {
    let t = txt.trim_end_matches(['u', 'U', 'l', 'L']);
    let parsed = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else if let Some(bin) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        i64::from_str_radix(bin, 2)
    } else if t.len() > 1 && t.starts_with('0') && t.bytes().all(|b| b.is_ascii_digit()) {
        i64::from_str_radix(&t[1..], 8)
    } else {
        t.parse::<i64>()
    };
    parsed.unwrap_or(i64::MAX)
}

fn decode_char_literal(lit: &str) -> char {
    let inner = lit.trim_start_matches(['L', 'u', 'U']).trim_matches('\'');
    let mut chars = inner.chars();
    match (chars.next(), chars.next()) {
        (Some('\\'), Some(c)) => match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            '0' => '\0',
            '\\' => '\\',
            '\'' => '\'',
            other => other,
        },
        (Some(c), _) => c,
        _ => '\0',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> TranslationUnit {
        parse_source(FileId(0), src).unit
    }

    fn adsafe_visit_stmts(f: &FunctionDef, cb: impl FnMut(&Stmt)) {
        crate::visit::walk_stmts(f, cb);
    }

    #[test]
    fn parses_simple_function() {
        let u = parse("int add(int a, int b) { return a + b; }");
        let fns = u.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].sig.name, "add");
        assert_eq!(fns[0].sig.params.len(), 2);
        assert_eq!(fns[0].body.stmts.len(), 1);
        assert_eq!(u.recovery_count, 0);
    }

    #[test]
    fn parses_control_flow() {
        let u = parse(
            "void f(int x) { if (x > 0) { x--; } else { x++; } \
             while (x < 10) x++; do { x--; } while (x > 0); \
             for (int i = 0; i < 3; i++) { x += i; } \
             switch (x) { case 1: break; default: break; } }",
        );
        let f = &u.functions()[0];
        assert_eq!(f.body.stmts.len(), 5);
        assert!(matches!(f.body.stmts[0].kind, StmtKind::If { .. }));
        assert!(matches!(f.body.stmts[4].kind, StmtKind::Switch { .. }));
    }

    #[test]
    fn parses_globals_and_prototypes() {
        let u = parse("static int counter = 0;\nextern double rate;\nint helper(int);\n");
        assert_eq!(u.global_vars().len(), 2);
        assert_eq!(u.global_vars()[0].storage, Storage::Static);
        assert!(u.decls.iter().any(|d| matches!(d, Decl::Prototype(_))));
    }

    #[test]
    fn parses_cuda_kernel_and_launch() {
        let src = "__global__ void scale(float* out, float s, int n) {\n\
                   int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                   if (i < n) out[i] = out[i] * s;\n}\n\
                   void host(float* d, int n) { scale<<<n/256, 256>>>(d, 2.0f, n); }";
        let u = parse(src);
        let fns = u.functions();
        assert_eq!(fns.len(), 2);
        assert!(fns[0].sig.quals.cuda_global);
        let host = fns[1];
        let launched = match &host.body.stmts[0].kind {
            StmtKind::Expr(e) => matches!(e.kind, ExprKind::KernelLaunch { .. }),
            _ => false,
        };
        assert!(
            launched,
            "kernel launch not recognised: {:?}",
            host.body.stmts[0]
        );
    }

    #[test]
    fn parses_casts() {
        let u = parse(
            "void f() { int a = (int)3.5; float b = static_cast<float>(a); \
             void* p = reinterpret_cast<void*>(&a); }",
        );
        let f = &u.functions()[0];
        let mut casts = 0;
        for s in &f.body.stmts {
            if let StmtKind::Decl(vars) = &s.kind {
                for v in vars {
                    if let Some(Expr {
                        kind: ExprKind::Cast { .. },
                        ..
                    }) = &v.init
                    {
                        casts += 1;
                    }
                }
            }
        }
        assert_eq!(casts, 3);
    }

    #[test]
    fn keyword_type_calls_are_functional_casts() {
        let u = parse("void f(double d) { int k = int(d) + 1; int n = Wrap(d); int z = int(); }");
        let f = &u.functions()[0];
        let init = |i: usize| match &f.body.stmts[i].kind {
            StmtKind::Decl(vars) => vars[0].init.clone().expect("initialised"),
            other => panic!("not a declaration: {other:?}"),
        };
        let ExprKind::Binary { lhs, .. } = init(0).kind else {
            panic!("not a sum")
        };
        assert!(
            matches!(
                &lhs.kind,
                ExprKind::Cast { kind: CastKind::Functional, ty, .. } if ty.name == "int"
            ),
            "{lhs:?}"
        );
        // `Wrap(d)` may be a call or a cast; without a symbol table it
        // stays a call, and so does the value-initialising `int()`.
        assert!(matches!(init(1).kind, ExprKind::Call { .. }));
        assert!(matches!(init(2).kind, ExprKind::Call { .. }));
    }

    #[test]
    fn parses_class_with_methods() {
        let src = "class Tracker : public Base {\n public:\n  Tracker() {}\n  \
                   ~Tracker();\n  int Update(int x) { state_ += x; return state_; }\n\
                   void Reset();\n private:\n  int state_ = 0;\n};";
        let u = parse(src);
        let rec = u.decls.iter().find_map(|d| match d {
            Decl::Record(r) => Some(r),
            _ => None,
        });
        let rec = rec.expect("record parsed");
        assert_eq!(rec.name, "Tracker");
        assert_eq!(rec.bases, vec!["Base".to_string()]);
        assert_eq!(rec.methods.len(), 2); // ctor + Update
        assert_eq!(rec.method_decls.len(), 2); // dtor + Reset
        assert_eq!(rec.fields.len(), 1);
    }

    #[test]
    fn parses_namespace_nesting() {
        let u = parse("namespace apollo { namespace perception { void Detect() {} } }");
        let fns = u.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].sig.qualified_name, "apollo::perception::Detect");
    }

    #[test]
    fn parses_goto_and_labels() {
        let u = parse("int f(int x) { if (x < 0) goto fail; return x; fail: return -1; }");
        let f = &u.functions()[0];
        let has_goto = f.body.stmts.iter().any(|s| match &s.kind {
            StmtKind::If { then_branch, .. } => {
                matches!(then_branch.kind, StmtKind::Goto(_))
            }
            _ => false,
        });
        assert!(has_goto);
        assert!(f
            .body
            .stmts
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::Label(l, _) if l == "fail")));
    }

    #[test]
    fn parses_new_delete() {
        let u = parse("void f(int n) { float* buf = new float[n]; delete[] buf; }");
        let f = &u.functions()[0];
        let new_found = match &f.body.stmts[0].kind {
            StmtKind::Decl(vars) => matches!(
                vars[0].init.as_ref().map(|e| &e.kind),
                Some(ExprKind::New { array: Some(_), .. })
            ),
            _ => false,
        };
        assert!(new_found);
    }

    #[test]
    fn recovers_from_garbage() {
        let u = parse("int ok1() { return 1; }\n@@@ %% garbage $$\nint ok2() { return 2; }");
        let fns = u.functions();
        assert!(fns.iter().any(|f| f.sig.name == "ok1"));
        assert!(fns.iter().any(|f| f.sig.name == "ok2"));
    }

    #[test]
    fn never_panics_on_truncated_input() {
        for src in [
            "int f(",
            "int f() {",
            "struct S {",
            "if (",
            "int x = ;",
            "namespace {",
            "template <",
            "a<<<",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn parses_typedef_and_using_alias() {
        let u = parse("typedef unsigned int uint;\nusing Scalar = double;\nuint g;\nScalar s;");
        assert_eq!(
            u.decls
                .iter()
                .filter(|d| matches!(d, Decl::Typedef(_)))
                .count(),
            2
        );
        assert_eq!(u.global_vars().len(), 2);
    }

    #[test]
    fn parses_enum() {
        let u = parse("enum class Mode { Idle, Run = 3, Stop };");
        let e = u.decls.iter().find_map(|d| match d {
            Decl::Enum(e) => Some(e),
            _ => None,
        });
        let e = e.expect("enum parsed");
        assert!(e.scoped);
        assert_eq!(e.enumerators, vec!["Idle", "Run", "Stop"]);
    }

    #[test]
    fn parses_ternary_and_logical() {
        let u = parse("int f(int a, int b) { return (a > 0 && b > 0) ? a : b; }");
        let f = &u.functions()[0];
        match &f.body.stmts[0].kind {
            StmtKind::Return(Some(e)) => {
                assert!(matches!(e.kind, ExprKind::Ternary { .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_template_types() {
        let u = parse("void f() { std::vector<float> v; v.push_back(1.0f); }");
        let f = &u.functions()[0];
        assert!(matches!(&f.body.stmts[0].kind, StmtKind::Decl(vars)
            if vars[0].ty.name.contains("vector")));
    }

    #[test]
    fn multiple_declarators_in_stmt() {
        let u = parse("void f() { int a = 1, b = 2, *p = &a; }");
        let f = &u.functions()[0];
        match &f.body.stmts[0].kind {
            StmtKind::Decl(vars) => {
                assert_eq!(vars.len(), 3);
                assert_eq!(vars[2].ty.ptr_depth, 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parses_do_while_inside_for() {
        let u =
            parse("void f(int n) { for (int i = 0; i < n; i++) { do { n--; } while (n > i); } }");
        assert_eq!(u.functions().len(), 1);
        assert_eq!(u.recovery_count, 0);
    }

    #[test]
    fn parses_nested_ternary() {
        let u = parse("int sign(int x) { return x > 0 ? 1 : x < 0 ? -1 : 0; }");
        let f = &u.functions()[0];
        assert!(matches!(&f.body.stmts[0].kind, StmtKind::Return(Some(_))));
        assert_eq!(u.recovery_count, 0);
    }

    #[test]
    fn parses_array_parameters_and_locals() {
        let u = parse(
            "float sum3(float v[3]) { float acc[4]; acc[0] = v[0] + v[1] + v[2]; return acc[0]; }",
        );
        let f = &u.functions()[0];
        assert_eq!(f.sig.params[0].ty.array_dims, vec![Some(3)]);
        assert_eq!(u.recovery_count, 0);
    }

    #[test]
    fn parses_const_and_reference_params() {
        let u = parse("int Get(const int& v, int* const p) { return v + *p; }");
        let f = &u.functions()[0];
        assert!(f.sig.params[0].ty.is_ref);
        assert!(f.sig.params[0].ty.is_const);
        assert!(f.sig.params[1].ty.is_pointer_like());
    }

    #[test]
    fn parses_static_locals_and_shared_memory() {
        let u = parse("__global__ void k(float* x) { __shared__ float tile[256]; static int calls = 0; calls++; tile[0] = x[0]; }");
        let f = &u.functions()[0];
        let mut shared_seen = false;
        let mut static_seen = false;
        adsafe_visit_stmts(f, |s| {
            if let StmtKind::Decl(vars) = &s.kind {
                for v in vars {
                    if v.cuda_space == CudaSpace::Shared {
                        shared_seen = true;
                    }
                    if v.storage == Storage::Static {
                        static_seen = true;
                    }
                }
            }
        });
        assert!(shared_seen && static_seen);
    }

    #[test]
    fn parses_comma_in_for_step() {
        let u = parse("void f(int n) { for (int i = 0, j = 0; i < n; i++, j += 2) { n -= j; } }");
        assert_eq!(u.recovery_count, 0, "{:?}", u.decls);
    }

    #[test]
    fn parses_chained_else_if() {
        let u = parse(
            "int grade(int s) { if (s > 90) { return 1; } else if (s > 70) { return 2; }              else if (s > 50) { return 3; } else { return 4; } }",
        );
        let f = &u.functions()[0];
        assert_eq!(u.recovery_count, 0);
        // Chain depth 3: else branches nest.
        let mut depth = 0;
        let mut cur = &f.body.stmts[0];
        while let StmtKind::If {
            else_branch: Some(e),
            ..
        } = &cur.kind
        {
            depth += 1;
            cur = e;
        }
        assert_eq!(depth, 3);
    }

    #[test]
    fn int_literal_forms() {
        assert_eq!(parse_int_literal("42"), 42);
        assert_eq!(parse_int_literal("0x2A"), 42);
        assert_eq!(parse_int_literal("0b101"), 5);
        assert_eq!(parse_int_literal("052"), 42);
        assert_eq!(parse_int_literal("42u"), 42);
        assert_eq!(
            parse_int_literal("123456789012345678901234567890"),
            i64::MAX
        );
    }
}
