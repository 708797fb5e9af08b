//! Token definitions for the C/C++/CUDA lexer.

use crate::source::Span;
use std::fmt;

/// Keywords recognised by the lexer, covering the C and C++ subsets the
/// analyses need plus the CUDA execution-space qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror the spelling of the keyword
pub enum Kw {
    // C
    Auto,
    Break,
    Case,
    Char,
    Const,
    Continue,
    Default,
    Do,
    Double,
    Else,
    Enum,
    Extern,
    Float,
    For,
    Goto,
    If,
    Inline,
    Int,
    Long,
    Register,
    Restrict,
    Return,
    Short,
    Signed,
    Sizeof,
    Static,
    Struct,
    Switch,
    Typedef,
    Union,
    Unsigned,
    Void,
    Volatile,
    While,
    // C++
    Bool,
    Catch,
    Class,
    ConstCast,
    Constexpr,
    Delete,
    DynamicCast,
    Explicit,
    False,
    Friend,
    Namespace,
    New,
    Noexcept,
    Nullptr,
    Operator,
    Override,
    Private,
    Protected,
    Public,
    ReinterpretCast,
    StaticCast,
    Template,
    This,
    Throw,
    True,
    Try,
    Typename,
    Using,
    Virtual,
    Final,
    // CUDA execution-space / memory-space qualifiers
    CudaGlobal,
    CudaDevice,
    CudaHost,
    CudaShared,
    CudaConstant,
    CudaRestrict,
    CudaForceInline,
    CudaNoInline,
    CudaManaged,
    CudaLaunchBounds,
}

impl Kw {
    /// Looks up a keyword by its source spelling.
    #[allow(clippy::should_implement_trait)] // fallible lookup, not a parse
    pub fn from_str(s: &str) -> Option<Kw> {
        use Kw::*;
        Some(match s {
            "auto" => Auto,
            "break" => Break,
            "case" => Case,
            "char" => Char,
            "const" => Const,
            "continue" => Continue,
            "default" => Default,
            "do" => Do,
            "double" => Double,
            "else" => Else,
            "enum" => Enum,
            "extern" => Extern,
            "float" => Float,
            "for" => For,
            "goto" => Goto,
            "if" => If,
            "inline" => Inline,
            "int" => Int,
            "register" => Register,
            "restrict" => Restrict,
            "return" => Return,
            "short" => Short,
            "signed" => Signed,
            "sizeof" => Sizeof,
            "static" => Static,
            "struct" => Struct,
            "switch" => Switch,
            "typedef" => Typedef,
            "union" => Union,
            "unsigned" => Unsigned,
            "void" => Void,
            "volatile" => Volatile,
            "while" => While,
            "bool" => Bool,
            "catch" => Catch,
            "class" => Class,
            "const_cast" => ConstCast,
            "constexpr" => Constexpr,
            "delete" => Delete,
            "dynamic_cast" => DynamicCast,
            "explicit" => Explicit,
            "false" => False,
            "friend" => Friend,
            "namespace" => Namespace,
            "new" => New,
            "noexcept" => Noexcept,
            "nullptr" => Nullptr,
            "operator" => Operator,
            "override" => Override,
            "private" => Private,
            "protected" => Protected,
            "public" => Public,
            "reinterpret_cast" => ReinterpretCast,
            "static_cast" => StaticCast,
            "template" => Template,
            "this" => This,
            "throw" => Throw,
            "true" => True,
            "try" => Try,
            "typename" => Typename,
            "using" => Using,
            "virtual" => Virtual,
            "final" => Final,
            "__global__" => CudaGlobal,
            "__device__" => CudaDevice,
            "__host__" => CudaHost,
            "__shared__" => CudaShared,
            "__constant__" => CudaConstant,
            "__restrict__" => CudaRestrict,
            "__forceinline__" => CudaForceInline,
            "__noinline__" => CudaNoInline,
            "__managed__" => CudaManaged,
            "__launch_bounds__" => CudaLaunchBounds,
            _ => return None,
        })
    }

    /// Whether this keyword can begin or qualify a type name.
    pub fn is_type_keyword(self) -> bool {
        use Kw::*;
        matches!(
            self,
            Void | Char
                | Short
                | Int
                | Long
                | Float
                | Double
                | Signed
                | Unsigned
                | Bool
                | Struct
                | Union
                | Enum
                | Const
                | Volatile
                | Auto
                | Typename
        )
    }

    /// Whether this keyword is a CUDA execution/memory-space qualifier.
    pub fn is_cuda_qualifier(self) -> bool {
        use Kw::*;
        matches!(
            self,
            CudaGlobal
                | CudaDevice
                | CudaHost
                | CudaShared
                | CudaConstant
                | CudaRestrict
                | CudaForceInline
                | CudaNoInline
                | CudaManaged
                | CudaLaunchBounds
        )
    }
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants named after the symbol they represent
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    DotStar,
    ArrowStar,
    Ellipsis,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    AmpAmp,
    PipePipe,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Shl,
    Shr,
    TripleLt,
    TripleGt, // CUDA kernel-launch delimiters <<< >>>
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    Question,
    Colon,
    ColonColon,
    At,
}

impl Punct {
    /// The source spelling of the punctuator.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            DotStar => ".*",
            ArrowStar => "->*",
            Ellipsis => "...",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            PlusPlus => "++",
            MinusMinus => "--",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            AmpAmp => "&&",
            PipePipe => "||",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            Shl => "<<",
            Shr => ">>",
            TripleLt => "<<<",
            TripleGt => ">>>",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            Question => "?",
            Colon => ":",
            ColonColon => "::",
            At => "@",
        }
    }
}

/// Kind of preprocessor directive captured by the preprocessor pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PpKind {
    Include,
    Define,
    Undef,
    If,
    Ifdef,
    Ifndef,
    Elif,
    Else,
    Endif,
    Pragma,
    Error,
    Warning,
    Line,
    Other,
}

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An identifier; spelling is recovered from the span.
    Ident,
    /// A keyword.
    Keyword(Kw),
    /// Integer literal (decimal, hex, octal, binary; any suffix).
    IntLit,
    /// Floating-point literal.
    FloatLit,
    /// String literal, including prefix and quotes.
    StrLit,
    /// Character literal.
    CharLit,
    /// Punctuation or operator.
    Punct(Punct),
    /// End of input (synthetic; one per token stream).
    Eof,
}

/// A lexed token: a kind plus the byte range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it lies.
    pub span: Span,
}

impl Token {
    /// Convenience constructor.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// Whether the token is the given punctuator.
    pub fn is_punct(&self, p: Punct) -> bool {
        self.kind == TokenKind::Punct(p)
    }

    /// Whether the token is the given keyword.
    pub fn is_kw(&self, k: Kw) -> bool {
        self.kind == TokenKind::Keyword(k)
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident => write!(f, "identifier"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k:?}`"),
            TokenKind::IntLit => write!(f, "integer literal"),
            TokenKind::FloatLit => write!(f, "float literal"),
            TokenKind::StrLit => write!(f, "string literal"),
            TokenKind::CharLit => write!(f, "char literal"),
            TokenKind::Punct(p) => write!(f, "`{}`", p.as_str()),
            TokenKind::Eof => write!(f, "end of file"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_roundtrip() {
        assert_eq!(Kw::from_str("while"), Some(Kw::While));
        assert_eq!(Kw::from_str("__global__"), Some(Kw::CudaGlobal));
        assert_eq!(Kw::from_str("static_cast"), Some(Kw::StaticCast));
        assert_eq!(Kw::from_str("not_a_kw"), None);
    }

    #[test]
    fn type_and_cuda_classification() {
        assert!(Kw::Int.is_type_keyword());
        assert!(Kw::Unsigned.is_type_keyword());
        assert!(!Kw::While.is_type_keyword());
        assert!(Kw::CudaShared.is_cuda_qualifier());
        assert!(!Kw::Static.is_cuda_qualifier());
    }

    #[test]
    fn punct_spelling() {
        assert_eq!(Punct::TripleLt.as_str(), "<<<");
        assert_eq!(Punct::ShlAssign.as_str(), "<<=");
        assert_eq!(Punct::Arrow.as_str(), "->");
    }
}
