(* Export linter: every top-level [val] of a library interface must have
   a caller outside its own module, every knob of the library two
   production values, and every constructor and record field of the
   library a production use.

   Usage: export_lint ALLOWLIST LIB_DIR... -- DIR... -- TEST_DIR...

   The lint reads the typed trees dune writes (the [.cmt] and [.cmti]
   files in the [.objs] and [.eobjs] directories under each directory;
   a directory named [fixtures] is skipped). LIB_DIRs hold the library,
   DIRs the rest of production (bin, bench, perfbench, examples), and
   TEST_DIRs the test suite. References resolve by [Path], through
   [open], module aliases ([module M = A.B], [let module]) and dune's
   [Lib__Module] wrapping, so the two [Capability] modules stay apart.

   Eight rules, each a failure unless ALLOWLIST has an entry for it:
   - Uncalled export: a top-level [val] of a lib [.mli] that no
     production unit other than its own refers to.
   - One-value option: a [?lab:] parameter of such a [val] that no
     production call passes, or that every one passes the same literal
     (while none omits it). A literal is a constant or a constructor
     with no argument.
   - One-value label: a required [lab:] parameter that every production
     call passes the same numeric, boolean or constructor literal. A
     string or character literal names something and never fails.
   A call is a [Texp_apply] whose function is the value, in any
   production unit (its own module included). An omitted [?lab] of a
   full application is the [None] the typer inserts with no location;
   an argument a partial application leaves open, like any reference
   that is not applied (bound to a name, passed as an argument), counts
   as a value distinct from every other.
   - Config field: a config record is a record type of a lib [.mli]
     whose module also exports a value of it or a function returning
     one (its default). A field fails when the defaults' own
     definitions give it one literal and no production record
     expression or assignment of that type sets it elsewhere.
   - Idle metric: a top-level [let] of a lib [.ml] that registers a
     metric ([Metrics.counter], [gauge], [histogram] or any
     [Metrics.Family] function) and that no production code names.
   - Unbuilt constructor: a constructor of a variant type declared in
     lib that no production [Texp_construct] builds, whether or not a
     test does.
   - Write-only field: a field of a record type declared in lib that
     production writes (a record expression that gives it a value, or
     an assignment) but never reads (a field access, or a record
     pattern that binds it to anything but [_]).
   - Unassigned mutable: a [mutable] field that no production code
     assigns.
   Constructors and fields are matched by their type, so a name shared
   by two types counts each apart; a type that re-exports another
   ([type t = M.t = A | B]) counts as the original.

   ALLOWLIST lines are [Module.value  reason], [Module.value ?lab
   reason], [Module.value ~lab  reason] or [Module.type.name  reason]
   (a config field, constructor or field); [#] starts a comment. The
   reason is required. An entry is stale, and fails, when its finding
   no longer fires, when it names nothing, or when no test refers to
   the value, passes the label or sets the config field. *)

open Typedtree

let ends_with suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* ------------------------------------------------------------------ *)
(* Typed trees *)

type unit_file = {
  name : string;  (** the compilation unit, e.g. [Peering_bgp__Rib] *)
  source : string;  (** its source file, as the lint reports it *)
  annots : Cmt_format.binary_annots;
}

(* The [.cmt] and [.cmti] files under [dir]. A unit's source file sits
   in the directory above the [.objs/byte] directory that holds them. *)
let rec typed_trees dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           if f = "fixtures" then [] else typed_trees path
         else if ends_with ".cmt" f || ends_with ".cmti" f then
           let cmt = Cmt_format.read_cmt path in
           match cmt.cmt_sourcefile with
           | Some src when not (ends_with "-gen" src) ->
             let home = Filename.dirname (Filename.dirname dir) in
             [
               {
                 name = cmt.cmt_modname;
                 source = Filename.concat home (Filename.basename src);
                 annots = cmt.cmt_annots;
               };
             ]
           | _ -> []
         else [])

(* Every unit read, by name. *)
let units = Hashtbl.create 256

(* [Peering_bgp__Rib] is reported as [Rib]. *)
let short name =
  let rec last i =
    if i <= 0 then name
    else if name.[i] = '_' && name.[i - 1] = '_' then
      String.sub name (i + 1) (String.length name - i - 1)
    else last (i - 1)
  in
  last (String.length name - 1)

(* The idents of one unit that stand for a global path: its top-level
   values, types and modules, and its module aliases. Stamps are unique
   within a unit only, so each unit has its own scope. *)
type scope = (string, string list) Hashtbl.t

let bind (scope : scope) id path = Hashtbl.replace scope (Ident.unique_name id) path

(* A path as unit and components: [Peering_bgp.Rib.announce] and
   [Peering_bgp__Rib.announce] are both [Peering_bgp__Rib; announce].
   [[]] for a local. *)
let rec resolve (scope : scope) = function
  | Path.Pident id -> (
    match Hashtbl.find_opt scope (Ident.unique_name id) with
    | Some p -> p
    | None -> if Ident.global id then [ Ident.name id ] else [])
  | Pdot (p, s) -> (
    match resolve scope p @ [ s ] with
    | [ _ ] -> []
    | h :: m :: rest when Hashtbl.mem units (h ^ "__" ^ m) -> (h ^ "__" ^ m) :: rest
    | l -> l)
  | Papply _ | Pextra_ty _ -> []

let key scope p = String.concat "." (resolve scope p)

let rec bind_module scope id (me : module_expr) path =
  match me.mod_desc with
  | Tmod_ident (p, _) -> bind scope id (resolve scope p)
  | Tmod_structure str ->
    bind scope id path;
    bind_structure scope path str
  | Tmod_constraint (me, _, _, _) -> bind_module scope id me path
  | _ -> ()

and bind_structure scope prefix str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, n) -> bind scope id (prefix @ [ n.txt ])
            | _ -> ())
          vbs
      | Tstr_type (_, ds) ->
        List.iter (fun d -> bind scope d.typ_id (prefix @ [ d.typ_name.txt ])) ds
      | Tstr_module { mb_id = Some id; mb_name = { txt = Some n; _ }; mb_expr; _ }
        ->
        bind_module scope id mb_expr (prefix @ [ n ])
      | _ -> ())
    str.str_items

let rec bind_signature scope prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_type (_, ds) ->
        List.iter (fun d -> bind scope d.typ_id (prefix @ [ d.typ_name.txt ])) ds
      | Tsig_module
          {
            md_id = Some id;
            md_name = { txt = Some n; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
        bind scope id (prefix @ [ n ]);
        bind_signature scope (prefix @ [ n ]) sg
      | _ -> ())
    sg.sig_items

(* The key of the type a type expression names. *)
let type_key scope ty =
  match Types.get_desc ty with Tconstr (p, _, _) -> key scope p | _ -> ""

(* ------------------------------------------------------------------ *)
(* Uses *)

(* What a call passes for a label: a literal (its text), or anything
   else, which may differ from call to call. *)
type value = Literal of string | Other

let literal e =
  match e.exp_desc with
  | Texp_constant c ->
    Literal
      (match c with
      | Const_int n -> string_of_int n
      | Const_char c -> Printf.sprintf "%C" c
      | Const_string (s, _, _) -> Printf.sprintf "%S" s
      | Const_float s -> s
      | Const_int32 n -> Int32.to_string n ^ "l"
      | Const_int64 n -> Int64.to_string n ^ "L"
      | Const_nativeint n -> Nativeint.to_string n ^ "n")
  | Texp_construct (_, c, []) -> Literal c.cstr_name
  | _ -> Other

(* The labelled arguments of one application. The typer wraps a
   [~lab:v] passed to an optional parameter as a [Some] with a ghost
   location, and fills an omitted one with a [None] at no location,
   which is left out here. An argument a partial application leaves
   open is [Other]. *)
let arguments args =
  List.filter_map
    (fun (lab, arg) ->
      match (lab, arg) with
      | Asttypes.Nolabel, _ -> None
      | (Asttypes.Labelled l | Optional l), None -> Some (l, Other)
      | Optional l, Some { exp_desc = Texp_construct (lid, _, args); exp_loc; _ }
        when lid.loc.loc_ghost -> (
        match args with
        | [] when exp_loc = Location.none -> None
        | [ v ] -> Some (l, literal v)
        | _ -> Some (l, Other))
      | Optional l, Some _ -> Some (l, Other)
      | Labelled l, Some e -> Some (l, literal e))
    args

(* Everything one side, production or tests, does with lib names. *)
type uses = {
  refs : (string, string) Hashtbl.t;  (** value -> a unit naming it *)
  calls : (string, (string * value) list option) Hashtbl.t;
      (** value -> each reference's labelled arguments; [None] when it
          is not applied *)
  built : (string, unit) Hashtbl.t;  (** constructors built *)
  read : (string, unit) Hashtbl.t;  (** fields read *)
  written : (string, unit) Hashtbl.t;  (** fields given a value *)
  assigned : (string, unit) Hashtbl.t;  (** fields assigned with [<-] *)
  set : (string, unit) Hashtbl.t;  (** fields written outside a default *)
  given : (string, value) Hashtbl.t;  (** field -> a value a default gives it *)
}

let uses () =
  let t () = Hashtbl.create 1024 in
  {
    refs = t ();
    calls = t ();
    built = t ();
    read = t ();
    written = t ();
    assigned = t ();
    set = t ();
    given = t ();
  }

(* Records what one unit does into [u]. A top-level binding named in
   [defaults] is a default, whose record expressions give values
   rather than set them. *)
let walk u ~self ~scope ~canon ~defaults = function
  | Cmt_format.Implementation str ->
    let mark tbl k = Hashtbl.replace tbl k () in
    let member ty name = canon (type_key scope ty) ^ "." ^ name in
    let in_default = ref false in
    let write (ld : Types.label_description) v =
      let k = member ld.lbl_res ld.lbl_name in
      mark u.written k;
      if !in_default then Hashtbl.add u.given k v else mark u.set k
    in
    let reference p call =
      match resolve scope p with
      | [] -> ()
      | l ->
        let k = String.concat "." l in
        Hashtbl.add u.refs k self;
        Hashtbl.add u.calls k call
    in
    let expr sub e =
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        reference p (Some (arguments args));
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
      | desc ->
        (match desc with
        | Texp_ident (p, _, _) -> reference p None
        | Texp_construct (_, c, _) -> mark u.built (member c.cstr_res c.cstr_name)
        | Texp_field (_, _, ld) -> mark u.read (member ld.lbl_res ld.lbl_name)
        | Texp_setfield (_, _, ld, _) ->
          mark u.assigned (member ld.lbl_res ld.lbl_name);
          write ld Other
        | Texp_record { fields; _ } ->
          Array.iter
            (function ld, Overridden (_, v) -> write ld (literal v) | _, Kept _ -> ())
            fields
        | Texp_letmodule (Some id, _, _, me, _) -> bind_module scope id me []
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
    in
    let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
     fun sub p ->
      (match p.pat_desc with
      | Tpat_record (fields, _) ->
        List.iter
          (fun (_, (ld : Types.label_description), (q : pattern)) ->
            match q.pat_desc with
            | Tpat_any -> ()
            | _ -> mark u.read (member ld.lbl_res ld.lbl_name))
          fields
      | _ -> ());
      Tast_iterator.default_iterator.pat sub p
    in
    let value_binding sub vb =
      let outer = !in_default in
      (match vb.vb_pat.pat_desc with
      | Tpat_var (_, n) when List.mem n.txt defaults -> in_default := true
      | _ -> ());
      Tast_iterator.default_iterator.value_binding sub vb;
      in_default := outer
    in
    let it = { Tast_iterator.default_iterator with expr; pat; value_binding } in
    it.structure it str
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Declarations *)

type export = {
  file : string;  (** the .mli *)
  line : int;
  unit_name : string;
  value : string;
  options : string list;  (** its [?lab:] parameters *)
  labels : string list;  (** its required [lab:] parameters *)
  returns : string;  (** the key of its result type *)
}

let qualified e = short e.unit_name ^ "." ^ e.value

let rec parameters ty (options, labels) =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> parameters rest (l :: options, labels)
  | Tarrow (Labelled l, _, rest, _) -> parameters rest (options, l :: labels)
  | Tarrow (Nolabel, _, rest, _) -> parameters rest (options, labels)
  | Tpoly (t, _) -> parameters t (options, labels)
  | _ -> (List.rev options, List.rev labels, ty)

(* A constructor or record field declared in lib. *)
type member = {
  mkey : string;  (** [Unit.type.name] *)
  ty : string;  (** [Unit.type] *)
  shown : string;  (** [Module.type.name] *)
  mfile : string;
  mline : int;
  field : bool;
  mut : bool;
}

(* The constructors and fields of the variant and record types a unit
   declares, and its type equations [type t = M.t = …]: (type, the
   type it re-exports). *)
let declarations scope file unit_name annots =
  let members = ref [] and equations = ref [] in
  let types prefix (d : type_declaration) =
    let ty = String.concat "." (prefix @ [ d.typ_name.txt ]) in
    let add name (loc : Location.t) field mut =
      let shown =
        String.concat "." ((short unit_name :: List.tl prefix) @ [ d.typ_name.txt; name ])
      in
      members :=
        { mkey = ty ^ "." ^ name; ty; shown; mfile = file;
          mline = loc.loc_start.pos_lnum; field; mut }
        :: !members
    in
    match (d.typ_manifest, d.typ_kind) with
    | Some m, (Ttype_variant _ | Ttype_record _) ->
      equations := (ty, type_key scope m.ctyp_type) :: !equations
    | _, Ttype_variant cds -> List.iter (fun c -> add c.cd_name.txt c.cd_loc false false) cds
    | _, Ttype_record lds ->
      List.iter (fun l -> add l.ld_name.txt l.ld_loc true (l.ld_mutable = Mutable)) lds
    | _ -> ()
  in
  let rec structure prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_type (_, ds) -> List.iter (types prefix) ds
        | Tstr_module { mb_name = { txt = Some n; _ }; mb_expr; _ } ->
          module_expr (prefix @ [ n ]) mb_expr
        | _ -> ())
      str.str_items
  and module_expr prefix me =
    match me.mod_desc with
    | Tmod_structure str -> structure prefix str
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | _ -> ()
  in
  let rec signature prefix sg =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_type (_, ds) -> List.iter (types prefix) ds
        | Tsig_module
            { md_name = { txt = Some n; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
          signature (prefix @ [ n ]) sg
        | _ -> ())
      sg.sig_items
  in
  (match annots with
  | Cmt_format.Implementation str -> structure [ unit_name ] str
  | Interface sg -> signature [ unit_name ] sg
  | _ -> ());
  (List.rev !members, !equations)

(* The top-level bindings of a lib implementation that register a
   metric: a [Metrics.counter], [gauge] or [histogram], or any
   [Metrics.Family] function, maybe under parameters. (name, line) *)
let registrations scope = function
  | Cmt_format.Implementation str ->
    List.concat_map
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              let rec body e =
                match e.exp_desc with
                | Texp_function { cases = [ c ]; _ } -> body c.c_rhs
                | d -> d
              in
              match (vb.vb_pat.pat_desc, body vb.vb_expr) with
              | Tpat_var (_, n), Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
                let registers =
                  match List.rev (resolve scope p) with
                  | _ :: "Family" :: m :: _ -> short m = "Metrics"
                  | ("counter" | "gauge" | "histogram") :: m :: _ -> short m = "Metrics"
                  | _ -> false
                in
                if registers then Some (n.txt, vb.vb_loc.loc_start.pos_lnum) else None
              | _ -> None)
            vbs
        | _ -> [])
      str.str_items
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Allowlist: [Module.value  reason], [Module.value ?lab  reason],
   [Module.value ~lab  reason] or [Module.type.name  reason] per line;
   [#] starts a comment. *)

type knob = Export | Optional of string | Required of string | Member

type entry = { lineno : int; key : string; knob : knob; reason : string }

let allowlist file =
  let word s =
    match String.index_opt s ' ' with
    | Some k -> (String.sub s 0 k, String.trim (String.sub s k (String.length s - k)))
    | None -> (s, "")
  in
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (lineno, line) ->
         let key, rest = word line in
         let label, reason = word rest in
         let lab () = String.sub label 1 (String.length label - 1) in
         if rest <> "" && rest.[0] = '?' then { lineno; key; knob = Optional (lab ()); reason }
         else if rest <> "" && rest.[0] = '~' then { lineno; key; knob = Required (lab ()); reason }
         else if List.length (String.split_on_char '.' key) >= 3 then
           { lineno; key; knob = Member; reason = rest }
         else { lineno; key; knob = Export; reason = rest })

(* ------------------------------------------------------------------ *)
(* Rules *)

(* [Some reason] when [calls] give option [lab] fewer than two values:
   none passes it, or every one passes the same literal. *)
let one_value calls lab =
  let passes =
    List.concat_map
      (function
        | None -> [ Other ]
        | Some args -> List.filter_map (fun (l, v) -> if l = lab then Some v else None) args)
      calls
  in
  let omitted =
    List.exists (function Some args -> not (List.mem_assoc lab args) | None -> false) calls
  in
  match List.sort_uniq compare passes with
  | [] -> Some "no production call passes it"
  | [ Literal l ] when not omitted ->
    Some (Printf.sprintf "every production call passes ~%s:%s" lab l)
  | _ -> None

(* [Some reason] when [calls] pass required label [lab] one numeric,
   boolean or constructor literal. A call that omits it applies the
   label elsewhere, so it counts as a distinct value. *)
let one_literal calls lab =
  let passed = function
    | Some args -> Option.value (List.assoc_opt lab args) ~default:Other
    | None -> Other
  in
  match List.sort_uniq compare (List.map passed calls) with
  | [ Literal l ] when not (String.contains "\"'" l.[0]) ->
    Some (Printf.sprintf "every production call passes ~%s:%s" lab l)
  | _ -> None

let usage () =
  prerr_endline "usage: export_lint ALLOWLIST LIB_DIR... -- DIR... -- TEST_DIR...";
  exit 2

let () =
  let allow_file, lib, prod, tests =
    let rec split acc = function
      | "--" :: rest -> List.rev acc :: split [] rest
      | d :: rest -> split (d :: acc) rest
      | [] -> [ List.rev acc ]
    in
    match split [] (List.tl (Array.to_list Sys.argv)) with
    | [ allow :: lib; prod; tests ] ->
      let read dirs = List.concat_map typed_trees dirs in
      (allow, read lib, read prod, read tests)
    | _ -> usage ()
  in
  List.iter (fun u -> Hashtbl.replace units u.name ()) (lib @ prod @ tests);
  let scopes = Hashtbl.create 256 in
  let scope u =
    match Hashtbl.find_opt scopes u.source with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 64 in
      (match u.annots with
      | Implementation str -> bind_structure s [ u.name ] str
      | Interface sg -> bind_signature s [ u.name ] sg
      | _ -> ());
      Hashtbl.replace scopes u.source s;
      s
  in
  let interfaces = List.filter (fun u -> ends_with ".mli" u.source) lib in
  let implementations = List.filter (fun u -> ends_with ".ml" u.source) in
  let by_source = List.sort (fun a b -> compare a.source b.source) in
  let all =
    List.concat_map
      (fun u ->
        match u.annots with
        | Interface sg ->
          List.filter_map
            (fun item ->
              match item.sig_desc with
              | Tsig_value vd ->
                let options, labels, result = parameters vd.val_desc.ctyp_type ([], []) in
                Some
                  {
                    file = u.source;
                    line = vd.val_loc.loc_start.pos_lnum;
                    unit_name = u.name;
                    value = vd.val_name.txt;
                    options;
                    labels;
                    returns = type_key (scope u) result;
                  }
              | _ -> None)
            sg.sig_items
        | _ -> [])
      (by_source interfaces)
  in
  (* Constructors and fields, interfaces first, so that one declared
     in both is reported at its .mli line. *)
  let members = Hashtbl.create 1024 and order = ref [] in
  let equations = Hashtbl.create 16 and interface_types = Hashtbl.create 256 in
  List.iter
    (fun u ->
      let ms, eqs = declarations (scope u) u.source u.name u.annots in
      List.iter
        (fun m ->
          if ends_with ".mli" u.source then Hashtbl.replace interface_types m.ty ();
          if not (Hashtbl.mem members m.mkey) then begin
            Hashtbl.replace members m.mkey m;
            order := m :: !order
          end)
        ms;
      List.iter (fun (t, o) -> Hashtbl.replace equations t o) eqs)
    (by_source interfaces @ by_source (implementations lib));
  let members_in_order =
    List.stable_sort (fun a b -> compare (a.mfile, a.mline) (b.mfile, b.mline)) (List.rev !order)
  in
  let rec canon t =
    match Hashtbl.find_opt equations t with Some o when o <> t -> canon o | _ -> t
  in
  (* Defaults: exports of a value, or a function returning one, of a
     type their own interface declares. A record type with a default
     is a config record. *)
  let defaults =
    List.filter
      (fun e ->
        Hashtbl.mem interface_types e.returns
        && String.starts_with ~prefix:(e.unit_name ^ ".") e.returns)
      all
  in
  let prod_uses = uses () and test_uses = uses () in
  List.iter
    (fun u ->
      let own = List.filter_map (fun e -> if e.unit_name = u.name then Some e.value else None) defaults in
      walk prod_uses ~self:u.name ~scope:(scope u) ~canon ~defaults:own u.annots)
    (implementations lib @ prod);
  List.iter (fun u -> walk test_uses ~self:u.name ~scope:(scope u) ~canon ~defaults:[] u.annots) tests;
  let key_of e = e.unit_name ^ "." ^ e.value in
  let called e = List.exists (( <> ) e.unit_name) (Hashtbl.find_all prod_uses.refs (key_of e)) in
  let calls_of e = Hashtbl.find_all prod_uses.calls (key_of e) in
  let tested_with e lab =
    List.exists
      (function Some args -> List.mem_assoc lab args | None -> false)
      (Hashtbl.find_all test_uses.calls (key_of e))
  in
  (* Config fields: (first default, member, the one literal the
     defaults give it). *)
  let configs =
    List.concat_map
      (fun m ->
        match List.find_opt (fun e -> e.returns = m.ty) defaults with
        | Some e when m.field -> (
          match List.sort_uniq compare (Hashtbl.find_all prod_uses.given m.mkey) with
          | [ Literal l ] -> [ (e, m, l) ]
          | _ -> [])
        | _ -> [])
      members_in_order
  in
  let n_config_fields =
    List.length
      (List.filter
         (fun m -> m.field && List.exists (fun e -> e.returns = m.ty) defaults)
         members_in_order)
  in
  (* The findings on constructors and fields: (member, why). *)
  let mem tbl m = Hashtbl.mem tbl m.mkey in
  let config_findings =
    List.filter_map
      (fun (e, m, l) ->
        if mem prod_uses.set m then None
        else Some (m, Printf.sprintf "%s:%d: %s: no production record sets it; %s gives it %s"
                        e.file e.line m.shown e.value l))
      configs
  in
  let member_finding rule =
    List.filter_map
      (fun m -> Option.map (fun why -> (m, Printf.sprintf "%s:%d: %s: %s" m.mfile m.mline m.shown why)) (rule m))
      members_in_order
  in
  let unbuilt =
    member_finding (fun m ->
        if m.field || mem prod_uses.built m then None
        else if mem test_uses.built m then Some "only tests build it"
        else Some "no production code builds it")
  in
  let write_only =
    member_finding (fun m ->
        if not (m.field && mem prod_uses.written m) || mem prod_uses.read m then None
        else if mem test_uses.read m then Some "production writes it, but only tests read it"
        else Some "production writes it, but nothing reads it")
  in
  let unassigned =
    member_finding (fun m ->
        if m.mut && not (mem prod_uses.assigned m) then
          Some "mutable, but no production code assigns it"
        else None)
  in
  let member_findings = config_findings @ unbuilt @ write_only @ unassigned in
  let allowed = allowlist allow_file in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.eprintf fmt
  in
  List.iter
    (fun { lineno; key; knob; reason } ->
      let named = List.filter (fun e -> qualified e = key) all in
      let where = Printf.sprintf "%s:%d: %s" allow_file lineno key in
      if reason = "" then fail "%s: entry gives no reason\n" where;
      let label rule ~sigil ~what ~short get lab =
        let where = Printf.sprintf "%s %s%s" where sigil lab in
        match List.filter (fun e -> List.mem lab (get e)) named with
        | [] -> fail "%s: no such %s\n" where what
        | e :: _ ->
          if rule (calls_of e) lab = None then
            fail "%s: has two production values; drop the entry\n" where
          else if not (tested_with e lab) then
            fail "%s: no test passes it; delete the %s and the entry\n" where short
      in
      match knob with
      | Export ->
        if named = [] then fail "%s: no such lib export\n" where
        else if List.exists called named then fail "%s: has a caller; drop the entry\n" where
        else if not (List.exists (fun e -> Hashtbl.mem test_uses.refs (key_of e)) named) then
          fail "%s: no test refers to it; delete the value and the entry\n" where
      | Optional lab ->
        label one_value ~sigil:"?" ~what:"optional parameter" ~short:"option"
          (fun e -> e.options) lab
      | Required lab ->
        label one_literal ~sigil:"~" ~what:"required label" ~short:"label"
          (fun e -> e.labels) lab
      | Member ->
        if not (List.exists (fun m -> m.shown = key) members_in_order) then fail "%s: no such constructor or field\n" where
        else if not (List.exists (fun (m, _) -> m.shown = key) member_findings) then
          fail "%s: no finding fires for it; drop the entry\n" where
        else if
          List.exists (fun (m, _) -> m.shown = key && not (mem test_uses.set m)) config_findings
        then fail "%s: no test sets it; delete the field and the entry\n" where)
    allowed;
  let is_allowed key knob = List.exists (fun a -> a.key = key && a.knob = knob) allowed in
  List.iter
    (fun e ->
      if not (called e || is_allowed (qualified e) Export) then
        fail "%s:%d: %s has no caller outside its module\n" e.file e.line (qualified e);
      let knob rule mk sigil labs =
        List.iter
          (fun lab ->
            match rule (calls_of e) lab with
            | Some why when not (is_allowed (qualified e) (mk lab)) ->
              fail "%s:%d: %s %s%s: %s\n" e.file e.line (qualified e) sigil lab why
            | _ -> ())
          labs
      in
      knob one_value (fun l -> Optional l) "?" e.options;
      knob one_literal (fun l -> Required l) "~" e.labels)
    all;
  let report findings =
    List.iter (fun (m, line) -> if not (is_allowed m.shown Member) then fail "%s\n" line) findings
  in
  report config_findings;
  let metrics = ref 0 in
  List.iter
    (fun u ->
      List.iter
        (fun (v, line) ->
          incr metrics;
          if not (Hashtbl.mem prod_uses.refs (u.name ^ "." ^ v)) then
            fail "%s:%d: %s registers a metric that nothing updates\n" u.source line v)
        (registrations (scope u) u.annots))
    (by_source (implementations lib));
  report unbuilt;
  report write_only;
  report unassigned;
  let count p = List.length (List.filter p members_in_order) in
  Printf.printf
    "export_lint: %d exports in %d interfaces, %d optional parameters, %d required labels, %d \
     config fields, %d metrics, %d constructors, %d fields (%d mutable), %d allowlisted\n"
    (List.length all) (List.length interfaces)
    (List.fold_left (fun n e -> n + List.length e.options) 0 all)
    (List.fold_left (fun n e -> n + List.length e.labels) 0 all)
    n_config_fields !metrics
    (count (fun m -> not m.field))
    (count (fun m -> m.field))
    (count (fun m -> m.mut))
    (List.length allowed);
  if !failures > 0 then begin
    Printf.eprintf
      "export_lint: %d failure%s; un-export or delete the value, make the knob a constant, \
       delete the constructor or field, or allowlist it with a reason in %s\n"
      !failures
      (if !failures = 1 then "" else "s")
      allow_file;
    exit 1
  end
