let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let table fmt ~title ~header ~rows =
  let all = header :: rows in
  let columns = List.length header in
  let widths =
    List.init columns (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let print_row row =
    let cells = List.map2 (fun w cell -> pad w cell) widths row in
    Format.fprintf fmt "  %s@." (String.concat "  " cells)
  in
  let rule = String.make (List.fold_left ( + ) (2 * (columns - 1)) widths + 2) '-' in
  Format.fprintf fmt "@.%s@.%s@." title rule;
  print_row header;
  Format.fprintf fmt "%s@." rule;
  List.iter print_row rows;
  Format.fprintf fmt "%s@." rule

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

let ms x =
  if Float.abs x >= 100.0 then Printf.sprintf "%.1f ms" x else Printf.sprintf "%.2f ms" x

let minutes_of_ms x = x /. 60_000.0

let series fmt ~title ~unit_label labelled =
  match labelled with
  | [] -> ()
  | (_, first) :: _ ->
      let header = "t (min)" :: List.map fst labelled in
      let rows =
        List.mapi
          (fun i (x, _) ->
            f1 (minutes_of_ms x)
            :: List.map
                 (fun (_, points) ->
                   match List.nth_opt points i with
                   | Some (_, y) -> f1 y
                   | None -> "-")
                 labelled)
          first
      in
      table fmt ~title:(Printf.sprintf "%s  [%s]" title unit_label) ~header ~rows

let kv fmt pairs =
  let width = List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 pairs in
  List.iter (fun (k, v) -> Format.fprintf fmt "  %s : %s@." (pad width k) v) pairs
