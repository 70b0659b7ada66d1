open Peering_net

type pop = { id : int; city : string; country : Country.t }

type t = {
  name : string;
  pops : pop array;
  links : (int * int) list;
}

let c = Country.of_string_exn

let make_pops l =
  Array.of_list (List.mapi (fun id (city, cc) -> { id; city; country = c cc }) l)

let hurricane_electric =
  { name = "Hurricane Electric";
    pops =
      make_pops
        [ ("Seattle", "US"); ("Fremont", "US"); ("San Jose", "US");
          ("Los Angeles", "US"); ("Phoenix", "US"); ("Las Vegas", "US");
          ("Denver", "US"); ("Dallas", "US"); ("Houston", "US");
          ("Kansas City", "US"); ("Chicago", "US"); ("Minneapolis", "US");
          ("Toronto", "CA"); ("New York", "US"); ("Ashburn", "US");
          ("Atlanta", "US"); ("Miami", "US"); ("London", "GB");
          ("Paris", "FR"); ("Amsterdam", "NL"); ("Frankfurt", "DE");
          ("Zurich", "CH"); ("Stockholm", "SE"); ("Hong Kong", "HK") ];
    links =
      [ (0, 1); (0, 10); (0, 23); (1, 2); (1, 3); (2, 3); (2, 23); (3, 4);
        (4, 5); (4, 7); (5, 6); (6, 9); (7, 8); (7, 15); (8, 16); (9, 10);
        (10, 11); (10, 12); (10, 13); (12, 13); (13, 14); (13, 17); (14, 15);
        (15, 16); (17, 18); (17, 19); (18, 21); (19, 20); (19, 22); (20, 21) ]
  }

let abilene =
  { name = "Abilene";
    pops =
      make_pops
        [ ("Seattle", "US"); ("Sunnyvale", "US"); ("Los Angeles", "US");
          ("Denver", "US"); ("Kansas City", "US"); ("Houston", "US");
          ("Chicago", "US"); ("Indianapolis", "US"); ("Atlanta", "US");
          ("Washington", "US"); ("New York", "US") ];
    links =
      [ (0, 1); (0, 3); (1, 2); (1, 3); (2, 5); (3, 4); (4, 5); (4, 7);
        (5, 8); (6, 7); (6, 10); (7, 8); (8, 9); (9, 10) ]
  }

let n_pops t = Array.length t.pops
let n_links t = List.length t.links
