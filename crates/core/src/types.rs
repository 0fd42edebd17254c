//! Semantic types and the resolved data-model metadata.

use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// A resolved ASL type.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Type {
    /// `int`
    Int,
    /// `float`
    Float,
    /// `bool`
    Bool,
    /// `String`
    Str,
    /// `DateTime`
    DateTime,
    /// A class type, by name.
    Class(String),
    /// An enum type, by name.
    Enum(String),
    /// `setof T`
    Set(Box<Type>),
    /// Poison type produced after an error; compatible with everything so a
    /// single mistake does not cascade.
    Error,
}

impl Type {
    /// True for `int` / `float`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Float | Type::Error)
    }

    /// True if values of this type are ordered (`<`, `<=`, …).
    pub fn is_ordered(&self) -> bool {
        matches!(
            self,
            Type::Int | Type::Float | Type::Str | Type::DateTime | Type::Error
        )
    }

    /// Resolve a builtin type name (`int`, `float`, `bool`, `String`,
    /// `DateTime`). Returns `None` for user-defined names.
    pub fn builtin(name: &str) -> Option<Type> {
        Some(match name {
            "int" => Type::Int,
            "float" => Type::Float,
            "bool" | "boolean" => Type::Bool,
            "String" => Type::Str,
            "DateTime" => Type::DateTime,
            _ => return None,
        })
    }

    /// The element type if this is a set.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Set(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Bool => write!(f, "bool"),
            Type::Str => write!(f, "String"),
            Type::DateTime => write!(f, "DateTime"),
            Type::Class(n) => write!(f, "{n}"),
            Type::Enum(n) => write!(f, "{n}"),
            Type::Set(t) => write!(f, "setof {t}"),
            Type::Error => write!(f, "<error>"),
        }
    }
}

/// A resolved attribute of a class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttrInfo {
    /// Attribute name.
    pub name: String,
    /// Resolved attribute type.
    pub ty: Type,
    /// Name of the class that declared the attribute (differs from the
    /// queried class for inherited attributes).
    pub declared_in: String,
}

/// Resolved information about a class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassInfo {
    /// Class name.
    pub name: String,
    /// Direct superclass, if any.
    pub base: Option<String>,
    /// Attributes declared directly on this class (not inherited).
    pub own_attrs: Vec<AttrInfo>,
}

/// Resolved information about an enum.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnumInfo {
    /// Enum name.
    pub name: String,
    /// Variants in declaration order.
    pub variants: Vec<String>,
}

/// Signature of a helper function.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
}

/// Signature of a property (its context parameters).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PropSig {
    /// Property name.
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, Type)>,
    /// Condition identifiers declared by the property, in order.
    pub condition_ids: Vec<String>,
}

/// The resolved data-model metadata of a checked specification: class
/// hierarchy, enums, function and property signatures. This is the interface
/// both the interpreter (`asl-eval`) and the SQL compiler (`asl-sql`) build
/// on.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Model {
    /// All classes by name.
    pub classes: HashMap<String, ClassInfo>,
    /// All enums by name.
    pub enums: HashMap<String, EnumInfo>,
    /// Map from (globally unique) variant name to owning enum name.
    pub variant_owner: HashMap<String, String>,
    /// Global constants by name (extension).
    pub constants: HashMap<String, Type>,
    /// Helper-function signatures by name.
    pub functions: HashMap<String, FnSig>,
    /// Property signatures by name.
    pub properties: HashMap<String, PropSig>,
}

impl Model {
    /// Resolve a type annotation name into a semantic type.
    pub fn named_type(&self, name: &str) -> Option<Type> {
        if let Some(b) = Type::builtin(name) {
            return Some(b);
        }
        if self.classes.contains_key(name) {
            return Some(Type::Class(name.to_string()));
        }
        if self.enums.contains_key(name) {
            return Some(Type::Enum(name.to_string()));
        }
        None
    }

    /// Look up an attribute on a class, walking the inheritance chain.
    pub fn attr(&self, class: &str, attr: &str) -> Option<&AttrInfo> {
        let mut cur = Some(class);
        while let Some(cname) = cur {
            let ci = self.classes.get(cname)?;
            if let Some(a) = ci.own_attrs.iter().find(|a| a.name == attr) {
                return Some(a);
            }
            cur = ci.base.as_deref();
        }
        None
    }

    /// All attributes of a class, base-class attributes first.
    pub fn all_attrs(&self, class: &str) -> Vec<&AttrInfo> {
        let mut chain = Vec::new();
        let mut cur = Some(class);
        while let Some(cname) = cur {
            match self.classes.get(cname) {
                Some(ci) => {
                    chain.push(ci);
                    cur = ci.base.as_deref();
                }
                None => break,
            }
        }
        chain
            .iter()
            .rev()
            .flat_map(|ci| ci.own_attrs.iter())
            .collect()
    }

    /// True if `sub` equals `sup` or transitively extends it.
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        let mut cur = Some(sub);
        while let Some(cname) = cur {
            if cname == sup {
                return true;
            }
            cur = self.classes.get(cname).and_then(|ci| ci.base.as_deref());
        }
        false
    }

    /// Can a value of type `from` be used where `to` is expected?
    /// Allows `int → float` widening and subclass-to-superclass references.
    pub fn assignable(&self, from: &Type, to: &Type) -> bool {
        match (from, to) {
            (Type::Error, _) | (_, Type::Error) => true,
            (a, b) if a == b => true,
            (Type::Int, Type::Float) => true,
            (Type::Class(a), Type::Class(b)) => self.is_subclass(a, b),
            (Type::Set(a), Type::Set(b)) => self.assignable(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_hierarchy() -> Model {
        let mut m = Model::default();
        m.classes.insert(
            "Base".into(),
            ClassInfo {
                name: "Base".into(),
                base: None,
                own_attrs: vec![AttrInfo {
                    name: "Id".into(),
                    ty: Type::Int,
                    declared_in: "Base".into(),
                }],
            },
        );
        m.classes.insert(
            "Derived".into(),
            ClassInfo {
                name: "Derived".into(),
                base: Some("Base".into()),
                own_attrs: vec![AttrInfo {
                    name: "Extra".into(),
                    ty: Type::Float,
                    declared_in: "Derived".into(),
                }],
            },
        );
        m
    }

    #[test]
    fn builtin_names() {
        assert_eq!(Type::builtin("int"), Some(Type::Int));
        assert_eq!(Type::builtin("String"), Some(Type::Str));
        assert_eq!(Type::builtin("Region"), None);
    }

    #[test]
    fn attr_lookup_walks_inheritance() {
        let m = model_with_hierarchy();
        assert_eq!(m.attr("Derived", "Id").unwrap().ty, Type::Int);
        assert_eq!(m.attr("Derived", "Extra").unwrap().ty, Type::Float);
        assert!(m.attr("Base", "Extra").is_none());
    }

    #[test]
    fn all_attrs_base_first() {
        let m = model_with_hierarchy();
        let names: Vec<_> = m.all_attrs("Derived").iter().map(|a| &a.name).collect();
        assert_eq!(names, ["Id", "Extra"]);
    }

    #[test]
    fn subclass_relation() {
        let m = model_with_hierarchy();
        assert!(m.is_subclass("Derived", "Base"));
        assert!(m.is_subclass("Base", "Base"));
        assert!(!m.is_subclass("Base", "Derived"));
    }

    #[test]
    fn assignability() {
        let m = model_with_hierarchy();
        assert!(m.assignable(&Type::Int, &Type::Float));
        assert!(!m.assignable(&Type::Float, &Type::Int));
        assert!(m.assignable(&Type::Class("Derived".into()), &Type::Class("Base".into())));
        assert!(!m.assignable(&Type::Class("Base".into()), &Type::Class("Derived".into())));
        assert!(m.assignable(
            &Type::Set(Box::new(Type::Class("Derived".into()))),
            &Type::Set(Box::new(Type::Class("Base".into())))
        ));
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Set(Box::new(Type::Float)).to_string(), "setof float");
        assert_eq!(Type::Class("Region".into()).to_string(), "Region");
    }
}
