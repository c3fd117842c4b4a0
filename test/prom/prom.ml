(* Prometheus text exposition parser — the inverse of
   [Qdt_obs.Metrics.render_prometheus], strict enough that CI can fail a scrape
   that a real Prometheus server would reject.

   The format (version 0.0.4) is line-oriented: [# HELP]/[# TYPE]
   comments, then sample lines of the form [name], optional brace-
   enclosed quoted labels, a value, and an optional timestamp.  We
   enforce the pieces a scraper cares about: names match the exposition
   grammar, label values are quoted with the three escapes (backslash,
   quote, newline), values parse as Prometheus floats (including NaN
   and signed Inf), and every sample belongs to the family declared by
   the preceding TYPE line — where histogram families also own their
   [_bucket], [_sum] and [_count] series. *)

type sample = {
  metric : string;
  labels : (string * string) list;
  value : float;
}

type family = { name : string; kind : string; samples : sample list }

exception Bad of int * string

let fail ln fmt = Printf.ksprintf (fun s -> raise (Bad (ln, s))) fmt

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let is_label_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_label_char c = is_label_start c || (c >= '0' && c <= '9')

(* A cursor over one line; [ln] only for error messages. *)
type cur = { s : string; ln : int; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None
let advance c = c.i <- c.i + 1

let skip_spaces c =
  while c.i < String.length c.s && (c.s.[c.i] = ' ' || c.s.[c.i] = '\t') do
    advance c
  done

let name_token c ~what ~start ~cont =
  let i0 = c.i in
  (match peek c with
  | Some ch when start ch -> advance c
  | _ -> fail c.ln "expected %s at column %d" what (c.i + 1));
  let rec go () =
    match peek c with
    | Some ch when cont ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  String.sub c.s i0 (c.i - i0)

let quoted_value c =
  (match peek c with
  | Some '"' -> advance c
  | _ -> fail c.ln "expected '\"' to open a label value");
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.ln "unterminated label value"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
        | Some '"' -> advance c; Buffer.add_char b '"'; go ()
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | _ -> fail c.ln "bad escape in label value (expected \\\\, \\\" or \\n)")
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let labels c =
  match peek c with
  | Some '{' ->
      advance c;
      let rec go acc =
        skip_spaces c;
        match peek c with
        | Some '}' ->
            advance c;
            List.rev acc
        | _ ->
            let k =
              name_token c ~what:"a label name" ~start:is_label_start
                ~cont:is_label_char
            in
            skip_spaces c;
            (match peek c with
            | Some '=' -> advance c
            | _ -> fail c.ln "expected '=' after label name %S" k);
            skip_spaces c;
            let v = quoted_value c in
            if List.mem_assoc k acc then fail c.ln "duplicate label %S" k;
            skip_spaces c;
            (match peek c with
            | Some ',' ->
                advance c;
                go ((k, v) :: acc)
            | Some '}' ->
                advance c;
                List.rev ((k, v) :: acc)
            | _ -> fail c.ln "expected ',' or '}' after label %S" k)
      in
      go []
  | _ -> []

let prom_value ln s =
  match s with
  | "NaN" -> Float.nan
  | "+Inf" | "Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | _ -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> fail ln "bad sample value %S" s)

let sample_of_line ln line =
  let c = { s = line; ln; i = 0 } in
  let metric =
    name_token c ~what:"a metric name" ~start:is_name_start ~cont:is_name_char
  in
  let labels = labels c in
  skip_spaces c;
  let rest = String.sub c.s c.i (String.length c.s - c.i) in
  (match String.split_on_char ' ' rest |> List.filter (fun t -> t <> "") with
  | [ v ] -> Some v
  | [ v; ts ] ->
      (* Optional timestamp: integer milliseconds. *)
      (match int_of_string_opt ts with
      | Some _ -> ()
      | None -> fail ln "bad timestamp %S" ts);
      Some v
  | [] -> fail ln "missing sample value"
  | _ -> fail ln "trailing garbage after sample value")
  |> function
  | Some v -> { metric; labels; value = prom_value ln v }
  | None -> assert false

(* Does [metric] belong to the family [fam] of kind [kind]?  Histograms
   own the three derived series; everything else must match exactly. *)
let belongs ~kind ~fam metric =
  metric = fam
  || (kind = "histogram"
     && (metric = fam ^ "_bucket"
        || metric = fam ^ "_sum"
        || metric = fam ^ "_count"))

let parse text =
  let lines = String.split_on_char '\n' text in
  let families = ref [] in
  (* (name, kind, rev samples) of the family being filled. *)
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (name, kind, rev) ->
        families := { name; kind; samples = List.rev rev } :: !families;
        current := None
  in
  try
    List.iteri
      (fun idx raw ->
        let ln = idx + 1 in
        let line =
          (* Tolerate \r\n transport. *)
          let n = String.length raw in
          if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw
        in
        if String.trim line = "" then ()
        else if String.length line > 0 && line.[0] = '#' then begin
          match
            String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
          with
          | "#" :: "TYPE" :: name :: kind :: _ ->
              if not (String.for_all is_name_char name && name <> ""
                     && is_name_start name.[0])
              then fail ln "bad metric name %S in TYPE line" name;
              (match kind with
              | "counter" | "gauge" | "histogram" | "summary" | "untyped" -> ()
              | _ -> fail ln "bad metric kind %S in TYPE line" kind);
              flush ();
              current := Some (name, kind, [])
          | "#" :: ("HELP" | "EOF") :: _ | [ "#" ] -> ()
          | "#" :: _ -> ()  (* other comments are legal and ignored *)
          | _ -> assert false
        end
        else begin
          let s = sample_of_line ln line in
          match !current with
          | Some (fam, kind, rev) when belongs ~kind ~fam s.metric ->
              current := Some (fam, kind, s :: rev)
          | Some (fam, _, _) ->
              fail ln "sample %S outside its family (current family %S)"
                s.metric fam
          | None -> fail ln "sample %S before any TYPE line" s.metric
        end)
      lines;
    flush ();
    Ok (List.rev !families)
  with Bad (ln, msg) -> Error (Printf.sprintf "line %d: %s" ln msg)

let find name fams = List.find_opt (fun f -> f.name = name) fams

let total f =
  let keep (s : sample) =
    match f.kind with
    | "histogram" -> s.metric = f.name ^ "_count"
    | _ -> s.metric = f.name
  in
  List.fold_left
    (fun acc s -> if keep s then acc +. s.value else acc)
    0.0 f.samples
